#include "src/core/mesh.h"

#include <algorithm>
#include <string>

#include "src/common/telemetry.h"

namespace rtct::core {

MeshSyncPeer::MeshSyncPeer(SiteId my_site, int num_sites, SyncConfig cfg)
    : my_site_(my_site),
      num_sites_(num_sites),
      cfg_(cfg),
      ibuf_(num_sites),
      last_rcv_(static_cast<std::size_t>(num_sites), cfg.buf_frames - 1),
      peers_(static_cast<std::size_t>(num_sites)) {
  for (auto& p : peers_) {
    p.last_ack = cfg.buf_frames - 1;
    p.ack_sent = cfg.buf_frames - 1;
  }
}

void MeshSyncPeer::submit_local(FrameNo frame, InputWord partial) {
  const FrameNo lag_frame = frame + cfg_.buf_frames;
  if (last_rcv_[my_site_] < lag_frame) {
    ibuf_.put(my_site_, lag_frame, partial);
    last_rcv_[my_site_] = lag_frame;
  }
}

FrameNo MeshSyncPeer::min_acked() const {
  FrameNo lo = last_rcv_[my_site_];
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    lo = std::min(lo, peers_[s].last_ack);
  }
  return lo;
}

std::optional<SyncMsg> MeshSyncPeer::make_message(SiteId peer, Time now) {
  if (peer < 0 || peer >= num_sites_ || peer == my_site_) return std::nullopt;
  PeerState& ps = peers_[peer];

  const FrameNo ack = last_rcv_[peer];
  const FrameNo first = ps.last_ack + 1;
  const FrameNo last = last_rcv_[my_site_];

  const bool have_inputs = last >= first;
  const bool have_new_ack = ack > ps.ack_sent;
  if (!have_inputs && !have_new_ack) return std::nullopt;

  SyncMsg msg;
  msg.site = my_site_;
  msg.ack_frame = ack;
  msg.first_frame = first;
  if (have_inputs) {
    const auto count = std::min<FrameNo>(last - first + 1, cfg_.max_inputs_per_message);
    msg.inputs.reserve(static_cast<std::size_t>(count));
    for (FrameNo f = first; f < first + count; ++f) {
      msg.inputs.push_back(ibuf_.partial(my_site_, f));
      if (f <= ps.highest_sent) ++stats_.inputs_retransmitted;
    }
    ps.highest_sent = std::max(ps.highest_sent, first + count - 1);
    stats_.inputs_sent += msg.inputs.size();
  }

  msg.send_time = now;
  if (ps.last_send_time >= 0) {
    msg.echo_time = ps.last_send_time;
    msg.echo_hold = now - ps.last_recv_time;
  }
  if (latest_own_.frame >= 0) {
    msg.hash_frame = latest_own_.frame;
    msg.state_hash = latest_own_.hash;
  }

  ps.ack_sent = std::max(ps.ack_sent, ack);
  ++stats_.messages_made;
  return msg;
}

void MeshSyncPeer::ingest(const SyncMsg& msg, Time recv_time) {
  const SiteId from = msg.site;
  if (from < 0 || from >= num_sites_ || from == my_site_) {
    ++stats_.stale_messages;
    return;
  }
  ++stats_.messages_ingested;
  PeerState& ps = peers_[from];

  for (std::size_t i = 0; i < msg.inputs.size(); ++i) {
    const FrameNo f = msg.first_frame + static_cast<FrameNo>(i);
    if (f < 0) continue;
    if (!ibuf_.put(from, f, msg.inputs[i])) ++stats_.duplicate_inputs_rcvd;
  }
  if (!msg.inputs.empty()) {
    // LastRcvFrame is a contiguity watermark: advance only over frames
    // actually present in the buffer. A reordered message whose window
    // starts above a loss-created gap must not drag the watermark past
    // frames we never received — ready() would then deliver incomplete
    // merged inputs and silently desync the replicas.
    FrameNo advanced = last_rcv_[from];
    while (ibuf_.has(from, advanced + 1)) ++advanced;
    if (advanced > last_rcv_[from]) {
      last_rcv_[from] = advanced;
      if (from == kMasterSite) {
        master_advance_time_ = recv_time;
        seen_master_ = true;
      }
    }
  }

  if (msg.ack_frame > ps.last_ack) {
    ps.last_ack = msg.ack_frame;
    ibuf_.trim_below(std::min(pointer_, min_acked() + 1));
  }

  if (msg.echo_time >= 0) {
    const Dur sample = recv_time - msg.echo_time - msg.echo_hold;
    if (sample >= 0) {
      ps.rtt.sample(sample);
      ++stats_.rtt_samples;
    }
  }
  if (msg.send_time > ps.last_send_time) {
    ps.last_send_time = msg.send_time;
    ps.last_recv_time = recv_time;
  }

  if (msg.hash_frame >= 0 && cfg_.hash_interval > 0 && desync_frame_ < 0) {
    const auto slot =
        static_cast<std::size_t>((msg.hash_frame / cfg_.hash_interval) % kHashWindow);
    if (own_hashes_[slot].frame == msg.hash_frame &&
        own_hashes_[slot].hash != msg.state_hash) {
      desync_frame_ = msg.hash_frame;
    }
  }
}

bool MeshSyncPeer::ready() const {
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (last_rcv_[s] < pointer_) return false;
  }
  return true;
}

InputWord MeshSyncPeer::pop() {
  const InputWord out = ibuf_.merged(pointer_).value_or(0);
  ++pointer_;
  ibuf_.trim_below(std::min(pointer_, min_acked() + 1));
  return out;
}

SiteId MeshSyncPeer::straggler() const {
  SiteId worst = kNoSite;
  FrameNo lo = last_rcv_[my_site_];
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    if (last_rcv_[s] < lo) {
      lo = last_rcv_[s];
      worst = s;
    }
  }
  return worst;
}

void MeshSyncPeer::note_state_hash(FrameNo frame, std::uint64_t hash) {
  if (cfg_.hash_interval <= 0 || frame % cfg_.hash_interval != 0) return;
  const auto slot = static_cast<std::size_t>((frame / cfg_.hash_interval) % kHashWindow);
  own_hashes_[slot] = {frame, hash};
  latest_own_ = {frame, hash};
}

SyncPeer::RemoteObs MeshSyncPeer::master_obs() const {
  SyncPeer::RemoteObs obs;
  obs.valid = seen_master_ && my_site_ != kMasterSite;
  obs.last_rcv_frame = last_rcv_[kMasterSite];
  obs.lag_frames = cfg_.buf_frames;
  obs.rcv_time = master_advance_time_;
  obs.rtt = my_site_ == kMasterSite ? 0 : peers_[kMasterSite].rtt.srtt();
  obs.rtt_valid = my_site_ != kMasterSite && peers_[kMasterSite].rtt.has_sample();
  return obs;
}

void MeshSyncPeer::export_metrics(MetricsRegistry& reg) const {
  export_sync_stats(reg, stats_);
  reg.gauge("sync.pointer_frame").set(static_cast<double>(pointer_));
  reg.gauge("sync.desync_frame").set(static_cast<double>(desync_frame_));
  reg.gauge("mesh.num_sites").set(num_sites_);
  reg.gauge("mesh.straggler_site").set(static_cast<double>(straggler()));
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (s == my_site_) continue;
    const std::string prefix = "mesh.peer." + std::to_string(s) + ".";
    reg.gauge(prefix + "last_rcv_frame").set(static_cast<double>(last_rcv_[s]));
    reg.gauge(prefix + "last_ack_frame").set(static_cast<double>(peers_[s].last_ack));
    const auto& rtt = peers_[s].rtt;
    reg.gauge(prefix + "rtt_ms").set(rtt.has_sample() ? to_ms(rtt.srtt()) : 0.0);
  }
}

}  // namespace rtct::core
