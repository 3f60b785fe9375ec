#include "src/core/rollback.h"

#include <algorithm>

#include "src/common/telemetry.h"

namespace rtct::core {

RollbackSession::RollbackSession(SiteId my_site, emu::IDeterministicGame& game,
                                 SyncConfig cfg)
    : my_site_(my_site),
      rm_site_(my_site == 0 ? SiteId{1} : SiteId{0}),
      game_(game),
      cfg_(cfg),
      delay_(std::max(0, cfg.rollback_input_delay)),
      // The ring must hold the restore target plus the whole speculation
      // span; anything smaller than delay + a few frames of slack would
      // stall immediately, so clamp rather than trust the config blindly.
      window_(std::max(cfg.rollback_window, delay_ + 4)),
      ibuf_(2) {
  ring_.resize(static_cast<std::size_t>(window_));
  game_.save_state_into(genesis_);
  // The paper's all-zero initialization: with an input delay of d, frames
  // [0, d) run with empty partial inputs at *both* sites, so both are known
  // in advance and neither side ever sends them.
  for (FrameNo f = 0; f < delay_; ++f) {
    ibuf_.put(my_site_, f, 0);
    ibuf_.put(rm_site_, f, 0);
  }
  local_top_ = delay_ - 1;
  remote_contig_ = delay_ - 1;
  last_ack_frame_ = delay_ - 1;  // the peer pre-filled the same zeros
}

void RollbackSession::execute_frame(FrameNo f) {
  const InputWord local = ibuf_.partial(my_site_, f);
  const bool have_remote = ibuf_.has(rm_site_, f);
  const InputWord remote = have_remote ? remote_partial(f) : predicted_remote(f);
  const InputWord merged = static_cast<InputWord>(local | remote);
  game_.step_frame(merged);
  Slot& s = slot(f);
  s.frame = f;
  game_.save_state_into(s.state);  // reuses the slot's buffer in steady state
  s.digest = game_.state_digest(cfg_.digest_version());
  s.merged = merged;
  s.remote_used = remote;
  s.remote_actual = have_remote;
}

RollbackSession::FrameOutcome RollbackSession::advance_frame(InputWord local_input) {
  const FrameNo f = executed_;
  ibuf_.put(my_site_, f + delay_, site_bits(local_input, my_site_));
  local_top_ = f + delay_;
  reconcile();
  execute_frame(f);
  ++executed_;
  ++rstats_.frames_executed;
  Slot& s = slot(f);
  s.mispredicted = false;
  if (!s.remote_actual) ++rstats_.predicted_frames;
  advance_confirmed();
  return FrameOutcome{f, s.digest, !s.remote_actual};
}

void RollbackSession::reconcile() {
  // Verify predictions in frame order: the first frame whose actual remote
  // input disagrees with what was used invalidates everything after it.
  FrameNo bad = -1;
  for (FrameNo f = confirmed_; f < executed_; ++f) {
    Slot& s = slot(f);
    if (s.remote_actual) continue;
    if (!ibuf_.has(rm_site_, f)) continue;
    if (remote_partial(f) == s.remote_used) {
      // Prediction was right: the frame executed with the real input and
      // stands as-is (the common case — inputs are runs of equal words).
      s.remote_actual = true;
    } else {
      bad = f;
      break;
    }
  }
  if (bad >= 0) rollback_and_resim(bad);
  advance_confirmed();
}

void RollbackSession::rollback_and_resim(FrameNo from) {
  const FrameNo top = executed_;
  ++rstats_.rollbacks;
  rstats_.max_rollback_depth =
      std::max(rstats_.max_rollback_depth, static_cast<int>(top - from));
  restore_state_after(from - 1);
  for (FrameNo f = from; f < top; ++f) {
    const InputWord prev_used = slot(f).remote_used;
    execute_frame(f);
    Slot& s = slot(f);
    if (s.remote_used != prev_used && !s.mispredicted) {
      s.mispredicted = true;  // a later rollback may change it again
      ++rstats_.mispredicted_frames;
    }
    ++rstats_.frames_resimulated;
  }
}

void RollbackSession::restore_state_after(FrameNo f) {
  const bool ok =
      f < 0 ? game_.load_state(genesis_) : game_.load_state(slot(f).state);
  if (!ok && desync_frame_ < 0) {
    // A snapshot the machine itself produced refused to load back — state
    // corruption. Surface it through the desync channel so drivers abort
    // the session instead of silently diverging.
    desync_frame_ = f < 0 ? 0 : f;
  }
}

void RollbackSession::advance_confirmed() {
  bool advanced = false;
  while (confirmed_ < executed_ && slot(confirmed_).remote_actual) {
    const Slot& s = slot(confirmed_);
    confirmed_digests_.push_back(s.digest);
    confirmed_inputs_.push_back(s.merged);
    if (cfg_.hash_interval > 0 &&
        confirmed_ % cfg_.hash_interval == cfg_.hash_interval - 1) {
      latest_own_ = HashRecord{confirmed_, s.digest};
    }
    if (pending_remote_.frame == confirmed_ && desync_frame_ < 0 &&
        pending_remote_.hash != s.digest) {
      desync_frame_ = confirmed_;
    }
    ++confirmed_;
    advanced = true;
  }
  if (advanced) {
    // Reclaim delivered entries, but keep every local input the peer has
    // not yet acked — it is still subject to go-back-N resend.
    ibuf_.trim_below(std::min(confirmed_, last_ack_frame_ + 1));
  }
}

std::optional<SyncMsg> RollbackSession::make_message(Time now) {
  const FrameNo first = last_ack_frame_ + 1;
  const bool inputs_pending = local_top_ >= first;
  const bool ack_news = remote_contig_ > ack_sent_;
  const bool hash_news = latest_own_.frame > hash_sent_;
  if (!inputs_pending && !ack_news && !hash_news) return std::nullopt;

  SyncMsg m;
  m.site = my_site_;
  m.ack_frame = remote_contig_;
  m.first_frame = first;
  if (inputs_pending) {
    const FrameNo last = std::min(
        local_top_, first + static_cast<FrameNo>(cfg_.max_inputs_per_message) - 1);
    m.inputs.reserve(static_cast<std::size_t>(last - first + 1));
    for (FrameNo f = first; f <= last; ++f) {
      m.inputs.push_back(ibuf_.partial(my_site_, f));
    }
    stats_.inputs_sent += m.inputs.size();
    if (highest_sent_ >= first) {
      stats_.inputs_retransmitted +=
          static_cast<std::uint64_t>(std::min(last, highest_sent_) - first + 1);
    }
    highest_sent_ = std::max(highest_sent_, last);
  }
  m.send_time = now;
  if (last_peer_send_time_ >= 0) {
    m.echo_time = last_peer_send_time_;
    m.echo_hold = now - last_peer_recv_time_;
  }
  if (latest_own_.frame >= 0) {
    m.hash_frame = latest_own_.frame;
    m.state_hash = latest_own_.hash;
    hash_sent_ = latest_own_.frame;
  }
  ack_sent_ = std::max(ack_sent_, remote_contig_);
  ++stats_.messages_made;
  return m;
}

void RollbackSession::ingest(const SyncMsg& msg, Time recv_time) {
  if (msg.site == my_site_) {
    ++stats_.stale_messages;
    return;
  }
  ++stats_.messages_ingested;

  // RTT estimation: echoed timestamp minus the peer's hold time.
  if (msg.echo_time >= 0) {
    const Dur sample = recv_time - msg.echo_time - msg.echo_hold;
    if (sample >= 0) {
      rtt_.sample(sample);
      ++stats_.rtt_samples;
    }
  }
  if (msg.send_time > last_peer_send_time_) {
    last_peer_send_time_ = msg.send_time;
    last_peer_recv_time_ = recv_time;
  }

  last_ack_frame_ = std::max(last_ack_frame_, msg.ack_frame);

  for (std::size_t i = 0; i < msg.inputs.size(); ++i) {
    const FrameNo f = msg.first_frame + static_cast<FrameNo>(i);
    if (!ibuf_.put(rm_site_, f, site_bits(msg.inputs[i], rm_site_))) {
      ++stats_.duplicate_inputs_rcvd;
    }
  }
  bool advanced = false;
  while (ibuf_.has(rm_site_, remote_contig_ + 1)) {
    ++remote_contig_;
    advanced = true;
  }
  if (advanced) {
    seen_remote_ = true;
    remote_advance_time_ = recv_time;
  }

  if (msg.hash_frame >= 0) check_remote_hash(msg.hash_frame, msg.state_hash);
}

void RollbackSession::check_remote_hash(FrameNo frame, std::uint64_t hash) {
  if (desync_frame_ >= 0) return;
  if (frame < confirmed_) {
    if (frame >= 0 && frame < static_cast<FrameNo>(confirmed_digests_.size()) &&
        confirmed_digests_[static_cast<std::size_t>(frame)] != hash) {
      desync_frame_ = frame;
    }
  } else if (frame > pending_remote_.frame) {
    // Not confirmed yet: park it (newest wins — a stale parked hash for a
    // frame we already compared is harmless) and compare on confirmation.
    pending_remote_ = HashRecord{frame, hash};
  }
}

SyncPeer::RemoteObs RollbackSession::remote_obs() const {
  SyncPeer::RemoteObs o;
  o.valid = seen_remote_;
  o.last_rcv_frame = remote_contig_;
  o.lag_frames = delay_;
  o.rcv_time = remote_advance_time_;
  o.rtt = rtt_.srtt();
  o.rtt_valid = rtt_.has_sample();
  return o;
}

void RollbackSession::export_metrics(MetricsRegistry& reg) const {
  export_sync_stats(reg, stats_);
  reg.counter("rollback.frames_executed").set(rstats_.frames_executed);
  reg.counter("rollback.frames_resimulated").set(rstats_.frames_resimulated);
  reg.counter("rollback.rollbacks").set(rstats_.rollbacks);
  reg.counter("rollback.predicted_frames").set(rstats_.predicted_frames);
  reg.counter("rollback.mispredicted_frames").set(rstats_.mispredicted_frames);
  reg.gauge("rollback.max_depth").set(rstats_.max_rollback_depth);
  reg.gauge("rollback.input_delay").set(delay_);
  reg.gauge("rollback.confirmed_frame").set(static_cast<double>(confirmed_));
  reg.gauge("rollback.executed_frame").set(static_cast<double>(executed_));
}

}  // namespace rtct::core
