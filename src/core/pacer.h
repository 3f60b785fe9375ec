// FramePacer — the real-time-consistency algorithms (paper Algorithms 3
// and 4, BeginFrameTiming / EndFrameTiming).
//
// Two mechanisms compose:
//
//  * Lag compensation (Algorithm 3): a frame that overran its 1/CFPS slot
//    (because SyncInput stalled on the network) leaves a *negative*
//    AdjustTimeDelta that shortens the following frames until the schedule
//    is caught up; an on-time frame waits out its remainder.
//
//  * Master/slave rate sync (Algorithm 4): only the slave (site 1)
//    estimates the master's current frame — from the freshest
//    LastRcvFrame[0], its arrival time, and RTT/2 — and folds the frame
//    difference into AdjustTimeDelta. Whichever site started earlier, the
//    *slave* absorbs the skew; without this, the earlier site oscillates
//    (shown by bench/ablation_pacing).
//
//    One departure from the paper's pseudocode: its MasterRcvTime - RTT/2
//    is when the *flush* carrying the master's input left, which is up to
//    a flush period (20 ms) after that input's frame began, so a literal
//    slave trails its master by about half a flush period. Sync messages
//    carry their newest input's age (SyncMsg::input_age_us) and the engine
//    moves MasterRcvTime back by it, so RemoteObs::rcv_time - RTT/2 is the
//    master's frame start itself.
#pragma once

#include "src/common/time.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/sync_peer.h"

namespace rtct::core {

/// Ablation switch for bench/ablation_pacing (§3.2's design discussion):
///   kFull           — Algorithms 3 + 4 (the paper's system)
///   kCompensateOnly — Algorithm 3 only: lag compensation, no master/slave
///                     rate sync ("the earlier site is always penalized")
///   kNaive          — "consume what is left in the current frame time by
///                     waiting": no compensation at all (§3.2's strawman)
enum class PacingPolicy { kFull, kCompensateOnly, kNaive };

class FramePacer {
 public:
  FramePacer(SiteId my_site, SyncConfig cfg, PacingPolicy policy = PacingPolicy::kFull)
      : my_site_(my_site), cfg_(cfg), policy_(policy) {}

  /// Algorithm 4 (BeginFrameTiming). `current_frame` is Algorithm 1's
  /// Frame; `obs` is the slave's freshest view of the master (ignored on
  /// the master, where SyncAdjustTimeDelta is defined to be zero). Its
  /// BufFrame is `obs.lag_frames`, the lag the sync engine stamps onto
  /// inputs, and its `rcv_time` already excludes the time the input waited
  /// for its flush; the pacer keeps no lag or age of its own.
  void begin_frame(Time now, FrameNo current_frame, const SyncPeer::RemoteObs& obs);

  /// Algorithm 3 (EndFrameTiming). Returns how long the caller should
  /// sleep before the next frame (0 when the frame overran and the deficit
  /// was pushed into AdjustTimeDelta instead).
  [[nodiscard]] Dur end_frame(Time now);

  /// The caller's wait for the slot end_frame() granted finished `late`
  /// past it (a real thread wakes up late). Carries that as an
  /// AdjustTimeDelta deficit, as lines 3-4 carry an overrun, so the next
  /// frame ends back on the original grid and oversleep costs no frame
  /// rate. Only the wall-clock driver calls this; the virtual-clock
  /// testbed never oversleeps. kNaive ignores it (it carries nothing).
  void carry_late_wake(Dur late);

  [[nodiscard]] Dur adjust_time_delta() const { return adjust_; }
  [[nodiscard]] Dur last_sync_adjust() const { return last_sync_adjust_; }
  [[nodiscard]] Time current_frame_start() const { return frame_start_; }

  [[nodiscard]] PacingPolicy policy() const { return policy_; }

  /// Frames paced (end_frame calls), frames that overran their slot, and
  /// total sleep granted — the pacer's contribution to the §4.2 budget.
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t overruns() const { return overruns_; }
  [[nodiscard]] Dur total_wait() const { return total_wait_; }

  /// Snapshots pacing state into the registry ("pacer.*", including
  /// "pacer.late_wakes" and "pacer.late_wake_ms", the carried lateness).
  void export_metrics(MetricsRegistry& reg) const;

 private:
  SiteId my_site_;
  SyncConfig cfg_;
  PacingPolicy policy_;
  Time frame_start_ = 0;      ///< CurrFrameStart
  Dur adjust_ = 0;            ///< AdjustTimeDelta
  Dur last_sync_adjust_ = 0;  ///< most recent SyncAdjustTimeDelta (telemetry)
  std::uint64_t frames_ = 0;
  std::uint64_t overruns_ = 0;  ///< frames whose slot ended in the past
  Dur total_wait_ = 0;          ///< sum of sleeps granted by end_frame
  std::uint64_t late_wakes_ = 0;  ///< carry_late_wake calls that carried
  Dur total_late_wake_ = 0;        ///< their summed lateness
};

}  // namespace rtct::core
