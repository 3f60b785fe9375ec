#include "src/core/sync_peer.h"

#include <algorithm>

#include "src/common/telemetry.h"

namespace rtct::core {

void export_sync_stats(MetricsRegistry& reg, const SyncPeerStats& s) {
  reg.counter("sync.messages_made").set(s.messages_made);
  reg.counter("sync.messages_ingested").set(s.messages_ingested);
  reg.counter("sync.inputs_sent").set(s.inputs_sent);
  reg.counter("sync.inputs_retransmitted").set(s.inputs_retransmitted);
  reg.counter("sync.redundant_inputs_sent").set(s.redundant_inputs_sent);
  reg.counter("sync.duplicate_inputs_rcvd").set(s.duplicate_inputs_rcvd);
  reg.counter("sync.stale_messages").set(s.stale_messages);
  reg.counter("sync.rtt_samples").set(s.rtt_samples);
  reg.counter("sync.rto_fires").set(s.rto_fires);
}

SyncPeer::SyncPeer(SiteId my_site, SyncConfig cfg)
    : my_site_(my_site), rm_site_(1 - my_site), cfg_(cfg), ibuf_(2),
      rtt_(cfg.min_rto, cfg.max_rto) {
  // Paper initialization: both LastRcvFrame and LastAckFrame start at
  // BufFrame-1, which makes the exit condition trivially true for the
  // first BufFrame frames ("empty inputs are returned", §3.1).
  last_rcv_frame_[0] = cfg_.buf_frames - 1;
  last_rcv_frame_[1] = cfg_.buf_frames - 1;
  last_ack_frame_ = cfg_.buf_frames - 1;
  // The initial LastRcvFrame is part of the protocol's shared knowledge:
  // acking it would be "new info" to no one.
  ack_sent_ = cfg_.buf_frames - 1;
}

bool SyncPeer::set_buf_frames(int buf_frames) {
  // Legal only while the protocol is still in its constructed state: no
  // local input buffered or sent, nothing delivered, nothing received.
  // (The handshake completes before frame 0, so drivers hit this window.)
  if (pointer_ != 0 || highest_sent_ >= 0 || stats_.messages_made != 0 ||
      last_rcv_frame_[my_site_] != cfg_.buf_frames - 1 ||
      last_rcv_frame_[rm_site_] != cfg_.buf_frames - 1) {
    return false;
  }
  cfg_.buf_frames = buf_frames;
  last_rcv_frame_[0] = buf_frames - 1;
  last_rcv_frame_[1] = buf_frames - 1;
  last_ack_frame_ = buf_frames - 1;
  ack_sent_ = buf_frames - 1;
  return true;
}

Dur SyncPeer::current_rto() const {
  const Dur base = rtt_.has_sample() ? rtt_.rto() : cfg_.initial_rto;
  // The backed-off timeout honours the same ceiling as the estimator
  // (RFC 6298 §5.5): backoff must not grow a stall past max_rto.
  return std::min(base * rto_backoff_, cfg_.max_rto);
}

void SyncPeer::submit_local(FrameNo frame, InputWord local_input) {
  const FrameNo lag_frame = frame + cfg_.buf_frames;  // line 1: LagF
  if (last_rcv_frame_[my_site_] < lag_frame) {        // lines 2-5
    ibuf_.put(my_site_, lag_frame, local_input);
    last_rcv_frame_[my_site_] = lag_frame;
  }
}

std::optional<SyncMsg> SyncPeer::make_message(Time now) {
  const FrameNo ack = last_rcv_frame_[rm_site_];           // sd[0]
  const FrameNo first_unacked = last_ack_frame_ + 1;
  const FrameNo last = last_rcv_frame_[my_site_];          // sd[2]

  const bool have_unacked = last >= first_unacked;
  const bool have_new_ack = ack > ack_sent_;

  // Paper policy (default): the whole unacked window goes out every flush.
  FrameNo first = first_unacked;  // sd[1]
  bool have_inputs = have_unacked;
  bool rto_resend = false;

  if (cfg_.adaptive_resend) {
    const FrameNo pre_watermark = highest_sent_;
    if (have_unacked && rto_deadline_ >= 0 && now >= rto_deadline_) {
      rto_resend = true;
      // Retransmission timer fired: fall back to a full go-back-N resend
      // and back the timer off until the peer shows ack progress.
      ++stats_.rto_fires;
      rto_backoff_ = std::min(rto_backoff_ * 2, kMaxRtoBackoff);
      rto_deadline_ = now + current_rto();
    } else if (have_unacked) {
      // Steady state: new inputs plus a redundancy tail of every unacked
      // input first sent within the last K flushes. Measuring the tail in
      // flushes (not entries) matters: after a stall the frame loop
      // catches up and a single flush carries a whole burst of inputs —
      // if that message is lost, a newest-K-entries tail could never
      // refill the gap and the session would sit out a full RTO (and the
      // resulting catch-up burst re-exposes the same window, a cascade
      // the loss sweeps showed clearly). Re-carrying the burst whole for
      // K flushes gives one-flush repair like the paper's go-back-N, at a
      // cost bounded by the input production rate rather than by the
      // RTT-scaled window.
      const FrameNo first_new = std::max(first_unacked, highest_sent_ + 1);
      const FrameNo tail_start =
          sent_watermarks_.empty() ? first_new : sent_watermarks_.front() + 1;
      first = std::max(first_unacked, std::min(first_new, tail_start));
      have_inputs = first <= last;
    }
    // Slide the per-flush watermark history (protection = K re-sends).
    sent_watermarks_.push_back(pre_watermark);
    while (sent_watermarks_.size() >
           static_cast<std::size_t>(std::max(0, cfg_.redundant_inputs))) {
      sent_watermarks_.pop_front();
    }
  }

  if (!have_inputs && !have_new_ack) return std::nullopt;  // "if new info exists"

  SyncMsg msg;
  msg.site = my_site_;
  msg.ack_frame = ack;
  msg.first_frame = first;
  if (have_inputs) {
    const auto count = std::min<FrameNo>(last - first + 1, cfg_.max_inputs_per_message);
    msg.inputs.reserve(static_cast<std::size_t>(count));
    for (FrameNo f = first; f < first + count; ++f) {
      msg.inputs.push_back(ibuf_.partial(my_site_, f));
      if (f <= highest_sent_) {
        ++stats_.inputs_retransmitted;
        if (cfg_.adaptive_resend && !rto_resend) ++stats_.redundant_inputs_sent;
      }
    }
    highest_sent_ = std::max(highest_sent_, first + count - 1);
    stats_.inputs_sent += msg.inputs.size();
    // Arm the retransmission timer the moment unacked data is outstanding.
    if (cfg_.adaptive_resend && rto_deadline_ < 0) rto_deadline_ = now + current_rto();
  }

  msg.send_time = now;
  if (last_peer_send_time_ >= 0) {
    msg.echo_time = last_peer_send_time_;
    msg.echo_hold = now - last_peer_recv_time_;
  }
  if (latest_own_.frame >= 0) {
    msg.hash_frame = latest_own_.frame;
    msg.state_hash = latest_own_.hash;
  }

  ack_sent_ = std::max(ack_sent_, ack);
  ++stats_.messages_made;
  return msg;
}

void SyncPeer::ingest(const SyncMsg& msg, Time recv_time) {
  if (msg.site != rm_site_) {
    ++stats_.stale_messages;
    return;
  }
  ++stats_.messages_ingested;

  // Lines 13-16: merge remote partial inputs, advance LastRcvFrame[rm].
  for (std::size_t i = 0; i < msg.inputs.size(); ++i) {
    const FrameNo f = msg.first_frame + static_cast<FrameNo>(i);
    if (f < 0) continue;
    if (!ibuf_.put(rm_site_, f, msg.inputs[i])) ++stats_.duplicate_inputs_rcvd;
  }
  // LastRcvFrame is a *contiguity* watermark, so it must only advance over
  // frames actually present. Under the paper policy every message starts at
  // the peer's first unacked frame, so msg.last_frame() is always safe; in
  // adaptive mode a reordered new-inputs message can arrive with a gap
  // behind it, and blindly adopting last_frame() would declare missing
  // inputs present (and desync both replicas on an all-zero merge). Walking
  // the buffer also rolls the watermark forward over any out-of-order
  // future inputs a gap-filling retransmission just connected.
  if (!msg.inputs.empty()) {
    FrameNo advanced = last_rcv_frame_[rm_site_];
    while (ibuf_.has(rm_site_, advanced + 1)) ++advanced;
    if (advanced > last_rcv_frame_[rm_site_]) {
      last_rcv_frame_[rm_site_] = advanced;
      remote_advance_time_ = recv_time;  // "MasterRcvTime" for Algorithm 4
      seen_remote_ = true;
    }
  }

  // Lines 17-19: cumulative ack from the peer.
  if (msg.ack_frame > last_ack_frame_) {
    last_ack_frame_ = msg.ack_frame;
    ibuf_.trim_below(std::min(pointer_, last_ack_frame_ + 1));
    // Ack progress: the path is moving, so reset the retransmit backoff
    // and re-arm (or clear) the timer for whatever is still outstanding.
    if (cfg_.adaptive_resend) {
      rto_backoff_ = 1;
      rto_deadline_ = last_rcv_frame_[my_site_] > last_ack_frame_
                          ? recv_time + current_rto()
                          : -1;
    }
  }

  // RTT sample from echoed timestamps. A 0 ns sample (loopback) is a real
  // measurement: the estimator keeps has-sample state explicitly instead
  // of the old `rtt == 0` sentinel that re-seeded forever on fast links.
  if (msg.echo_time >= 0) {
    const Dur sample = recv_time - msg.echo_time - msg.echo_hold;
    if (sample >= 0) {
      rtt_.sample(sample);
      stats_.rtt_samples = rtt_.sample_count();
    }
  }
  if (msg.send_time > last_peer_send_time_) {
    last_peer_send_time_ = msg.send_time;
    last_peer_recv_time_ = recv_time;
  }

  if (msg.hash_frame >= 0) check_remote_hash(msg.hash_frame, msg.state_hash);
}

void SyncPeer::note_state_hash(FrameNo frame, std::uint64_t hash) {
  if (cfg_.hash_interval <= 0) return;
  if (frame % cfg_.hash_interval != 0) return;
  const auto slot = static_cast<std::size_t>((frame / cfg_.hash_interval) % kHashWindow);
  own_hashes_[slot] = {frame, hash};
  latest_own_ = {frame, hash};
  // A remote hash may have been waiting for us to reach this frame.
  if (pending_remote_.frame == frame && desync_frame_ < 0) {
    if (pending_remote_.hash != hash) desync_frame_ = frame;
    pending_remote_ = {};
  }
}

void SyncPeer::check_remote_hash(FrameNo frame, std::uint64_t hash) {
  if (cfg_.hash_interval <= 0 || desync_frame_ >= 0) return;
  const auto slot = static_cast<std::size_t>((frame / cfg_.hash_interval) % kHashWindow);
  if (own_hashes_[slot].frame == frame) {
    if (own_hashes_[slot].hash != hash) desync_frame_ = frame;
    return;
  }
  // We have not executed that frame yet (the peer runs ahead): park the
  // newest such observation and compare when we get there.
  if (frame > pending_remote_.frame) pending_remote_ = {frame, hash};
}

bool SyncPeer::ready() const {
  // Line 21: LastRcvFrame[RmSiteNo] >= IBufPointer (and the local side,
  // which submit_local keeps ahead by construction).
  return last_rcv_frame_[rm_site_] >= pointer_ && last_rcv_frame_[my_site_] >= pointer_;
}

InputWord SyncPeer::pop() {
  // Lines 22-23. For the first BufFrame frames no entry exists and the
  // merged input is the paper's "empty input" (all zeros).
  const InputWord out = ibuf_.merged(pointer_).value_or(0);
  ++pointer_;
  ibuf_.trim_below(std::min(pointer_, last_ack_frame_ + 1));
  return out;
}

SyncPeer::RemoteObs SyncPeer::remote_obs() const {
  RemoteObs obs;
  obs.valid = seen_remote_;
  obs.last_rcv_frame = last_rcv_frame_[rm_site_];
  obs.lag_frames = cfg_.buf_frames;
  obs.rcv_time = remote_advance_time_;
  obs.rtt = rtt_.srtt();
  obs.rtt_valid = rtt_.has_sample();
  return obs;
}

void SyncPeer::export_metrics(MetricsRegistry& reg) const {
  export_sync_stats(reg, stats_);
  reg.gauge("sync.pointer_frame").set(static_cast<double>(pointer_));
  reg.gauge("sync.last_rcv_frame").set(static_cast<double>(last_rcv_frame_[rm_site_]));
  reg.gauge("sync.last_ack_frame").set(static_cast<double>(last_ack_frame_));
  reg.gauge("sync.rtt_ms").set(rtt_.has_sample() ? to_ms(rtt_.srtt()) : 0.0);
  reg.gauge("sync.rto_ms").set(to_ms(current_rto()));
  reg.gauge("sync.desync_frame").set(static_cast<double>(desync_frame_));
}

}  // namespace rtct::core
