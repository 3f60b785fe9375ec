// SyncPeer — the logical-consistency algorithm (paper Algorithm 2,
// SyncInput) as a sans-IO state machine.
//
// The paper presents SyncInput as a blocking function containing a
// send/receive loop. Factoring the state out of that loop gives four pure
// operations a driver composes:
//
//   submit_local(F, I)  — lines 1-5: buffer local input for frame F+BufFrame
//   make_message(now)   — lines 7-11: the outbound sd[] message (cumulative
//                         ack + unacked contiguous input window); nullopt
//                         when the peer needs nothing from us
//   ingest(msg, now)    — lines 12-20: merge a received rc[] message
//   ready()/pop()       — lines 21-23: the exit condition and delivery
//
// The blocking loop itself lives in the drivers (simulated coroutine /
// real-time thread), which interleave make_message on the flush timer and
// ingest on datagram arrival until ready() — identical protocol behaviour
// in both runtimes, and every branch unit-testable without IO.
//
// Reliability over UDP (§3.1): in the paper's policy (the default) inputs
// are re-sent in every message until cumulatively acked (go-back-N),
// duplicates are absorbed by the InputBuffer, and disorder is harmless
// because each input is addressed by absolute frame number.
//
// With cfg.adaptive_resend the transport instead behaves like a modern
// reliable-datagram layer: messages carry only new inputs plus a
// redundancy tail re-carrying every unacked input first sent within the
// last `redundant_inputs` flushes, and the full unacked window is resent
// only when the per-peer retransmission timer (SRTT + 4·RTTVAR with
// exponential backoff, see RttEstimator) fires.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/input_buffer.h"
#include "src/core/rtt.h"
#include "src/core/wire.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::core {

/// Counters for instrumentation and the loss-robustness benches.
struct SyncPeerStats {
  std::uint64_t messages_made = 0;
  std::uint64_t messages_ingested = 0;
  std::uint64_t inputs_sent = 0;          ///< input entries across all messages
  std::uint64_t inputs_retransmitted = 0; ///< entries sent more than once
  std::uint64_t duplicate_inputs_rcvd = 0;
  std::uint64_t stale_messages = 0;       ///< wrong-site or malformed drops
  std::uint64_t rtt_samples = 0;          ///< RttEstimator::sample_count()
  std::uint64_t rto_fires = 0;            ///< adaptive retransmit-timer expiries
  std::uint64_t redundant_inputs_sent = 0;  ///< K-tail entries (adaptive mode)
};

/// Snapshots a SyncPeerStats into the registry under the stable "sync.*"
/// counter names (shared between SyncPeer and MeshSyncPeer so two-site and
/// mesh sessions export identically; see README.md "Observability").
void export_sync_stats(MetricsRegistry& reg, const SyncPeerStats& s);

class SyncPeer {
 public:
  SyncPeer(SiteId my_site, SyncConfig cfg);

  /// Re-initializes the local-lag depth to a handshake-negotiated value
  /// (v2 adaptive lag). Only legal before any input was submitted, popped
  /// or sent — i.e. between SessionControl reaching kRunning and frame 0.
  /// Returns false (and changes nothing) if the protocol already moved.
  bool set_buf_frames(int buf_frames);

  // ---- Algorithm 2, lines 1-5 ------------------------------------------
  /// Buffers the local partial input for display frame `frame + BufFrame`.
  /// Call exactly once per local frame, in order.
  void submit_local(FrameNo frame, InputWord local_input);

  // ---- Algorithm 2, lines 7-11 -----------------------------------------
  /// Builds the next outbound message: cumulative ack + all local inputs
  /// the peer has not acknowledged (capped at max_inputs_per_message).
  /// Returns nullopt when there is nothing useful to say (everything
  /// acked AND our ack is already known to the peer).
  std::optional<SyncMsg> make_message(Time now);

  // ---- Algorithm 2, lines 12-20 ----------------------------------------
  /// Merges a received sync message; `recv_time` is the local receive
  /// timestamp (feeds MasterRcvTime and the RTT estimator).
  void ingest(const SyncMsg& msg, Time recv_time);

  // ---- Algorithm 2, lines 21-23 ----------------------------------------
  /// Exit condition of the receive loop: the input for the current
  /// pointer frame is complete at both sites.
  [[nodiscard]] bool ready() const;
  /// Delivers IBuf[IBufPointer] and advances the pointer. Pre: ready().
  InputWord pop();

  // ---- desync detection ---------------------------------------------------
  /// Driver reports the game-state hash after executing each frame. Every
  /// hash_interval-th hash is attached to outgoing messages and compared
  /// against the peer's — a replica-divergence tripwire (the paper assumes
  /// determinism; production netplay verifies it).
  void note_state_hash(FrameNo frame, std::uint64_t hash);

  /// True once any exchanged hash disagreed. Logical consistency is then
  /// provably broken (non-deterministic game or memory corruption); the
  /// embedding application should stop the session.
  [[nodiscard]] bool desync_detected() const { return desync_frame_ >= 0; }
  /// Frame of the first detected mismatch, or -1.
  [[nodiscard]] FrameNo desync_frame() const { return desync_frame_; }

  // ---- observability ------------------------------------------------------
  [[nodiscard]] FrameNo pointer() const { return pointer_; }
  [[nodiscard]] FrameNo last_rcv_frame(SiteId site) const {
    return last_rcv_frame_[site & 1];
  }
  [[nodiscard]] FrameNo last_ack_frame() const { return last_ack_frame_; }
  /// Lame-duck exit condition for a match whose last frame is `last`: the
  /// peer acked our inputs through `last`, and our own ack of its inputs
  /// through `last` is on the wire (so it can stop resending too).
  [[nodiscard]] bool tail_settled(FrameNo last) const {
    return last_ack_frame_ >= last && ack_sent_ >= last;
  }

  /// Smoothed round-trip time; 0 until the first sample (§3.2's RTT).
  /// `has_rtt_sample()` distinguishes "unmeasured" from "measured ~0"
  /// (a loopback link legitimately reports 0 ns).
  [[nodiscard]] Dur rtt() const { return rtt_.srtt(); }
  [[nodiscard]] bool has_rtt_sample() const { return rtt_.has_sample(); }
  [[nodiscard]] const RttEstimator& rtt_estimator() const { return rtt_; }
  /// Current retransmission timeout (backoff applied; adaptive mode).
  [[nodiscard]] Dur current_rto() const;

  /// Observation of the remote site's progress for Algorithm 4:
  /// LastRcvFrame[remote] and the local arrival time of the message that
  /// advanced it ("MasterRcvTime"). `lag_frames` is the input lag the
  /// remote site stamped onto that input ("BufFrame": the negotiated local
  /// lag in lockstep, the input delay in rollback), filled by the engine
  /// that owns it so the pacer never keeps a copy that could disagree.
  /// `rtt` is only meaningful when `rtt_valid`; consumers must not treat 0
  /// as "no delay" otherwise.
  struct RemoteObs {
    bool valid = false;
    FrameNo last_rcv_frame = 0;
    int lag_frames = 0;
    Time rcv_time = 0;
    Dur rtt = 0;
    bool rtt_valid = false;
  };
  [[nodiscard]] RemoteObs remote_obs() const;

  [[nodiscard]] const SyncPeerStats& stats() const { return stats_; }
  [[nodiscard]] const SyncConfig& config() const { return cfg_; }
  [[nodiscard]] SiteId site() const { return my_site_; }

  /// Snapshots counters and protocol gauges into the registry ("sync.*").
  void export_metrics(MetricsRegistry& reg) const;

 private:
  SiteId my_site_;
  SiteId rm_site_;
  SyncConfig cfg_;
  InputBuffer ibuf_;

  FrameNo pointer_ = 0;  ///< IBufPointer
  /// LastRcvFrame[2]: highest contiguous frame filled per site.
  FrameNo last_rcv_frame_[2];
  /// LastAckFrame[RmSiteNo]: highest local frame the peer has acked.
  FrameNo last_ack_frame_;
  /// Highest ack value we have ever put on the wire (to detect "new info").
  FrameNo ack_sent_ = -1;
  /// Highest local input frame ever sent (to count retransmissions).
  FrameNo highest_sent_ = -1;

  // RTT estimation (echoed timestamps).
  Time last_peer_send_time_ = -1;  ///< newest send_time seen from the peer
  Time last_peer_recv_time_ = 0;   ///< when we received it (for echo_hold)
  RttEstimator rtt_;

  // Adaptive retransmission timer (cfg_.adaptive_resend only). Armed while
  // unacked inputs are outstanding; an expiry triggers a full go-back-N
  // window resend and doubles the backoff until the next ack progress.
  Time rto_deadline_ = -1;
  int rto_backoff_ = 1;
  static constexpr int kMaxRtoBackoff = 16;
  /// Pre-flush `highest_sent_` for each of the last K flushes: the
  /// redundancy tail starts just above the oldest entry, so every input
  /// is re-carried for K flushes after its first send (burst-safe).
  std::deque<FrameNo> sent_watermarks_;

  // Algorithm 4 inputs.
  Time remote_advance_time_ = 0;
  bool seen_remote_ = false;

  // Desync detection state.
  struct HashRecord {
    FrameNo frame = -1;
    std::uint64_t hash = 0;
  };
  static constexpr int kHashWindow = 32;
  HashRecord own_hashes_[kHashWindow];   ///< ring keyed by interval index
  HashRecord latest_own_;                ///< newest interval hash (to send)
  HashRecord pending_remote_;            ///< peer hash we have not reached yet
  FrameNo desync_frame_ = -1;

  void check_remote_hash(FrameNo frame, std::uint64_t hash);

  SyncPeerStats stats_;
};

}  // namespace rtct::core
