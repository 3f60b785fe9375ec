// Integration tests: the full two-site system on the simulated testbed —
// every layer at once (emulator, games, sync protocol, pacing, session,
// netem), checked against the paper's claims and against a single-machine
// reference execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/stats.h"
#include "src/core/input_source.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"
#include "src/testbed/experiment.h"
#include "src/testbed/sweep.h"

namespace rtct::testbed {
namespace {

ExperimentConfig quick(int frames = 240) {
  ExperimentConfig cfg;
  cfg.frames = frames;
  return cfg;
}

// ---- end-to-end correctness ---------------------------------------------------

TEST(ExperimentTest, PerfectNetworkConverges) {
  const auto r = run_experiment(quick());
  EXPECT_TRUE(r.converged());
  EXPECT_EQ(r.first_divergence(), -1);
  EXPECT_EQ(r.site[0].frames_completed, 240);
  EXPECT_EQ(r.site[1].frames_completed, 240);
  EXPECT_EQ(r.site[0].final_framebuffer, r.site[1].final_framebuffer);
}

TEST(ExperimentTest, MatchesSingleMachineReference) {
  // The distributed run must equal a single machine fed the two input
  // scripts merged with the local-lag shift — the strongest end-to-end
  // check of "collaboration transparency".
  ExperimentConfig cfg = quick(300);
  cfg.set_rtt(milliseconds(60));
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());

  core::MasherInput p0(cfg.input_seed[0], cfg.input_hold_frames);
  core::MasherInput p1(cfg.input_seed[1], cfg.input_hold_frames);
  const auto s0 = core::materialize_script(p0, cfg.frames);
  const auto s1 = core::materialize_script(p1, cfg.frames);

  auto reference = games::make_machine(cfg.game);
  for (FrameNo f = 0; f < cfg.frames; ++f) {
    const InputWord input = f < cfg.sync.buf_frames
                                ? 0
                                : make_input(s0[f - cfg.sync.buf_frames],
                                             s1[f - cfg.sync.buf_frames]);
    reference->step_frame(input);
    // Timelines record the negotiated digest version (v2 for two
    // identically-configured sites) — compare apples to apples.
    ASSERT_EQ(reference->state_digest(cfg.sync.digest_version()),
              r.site[0].timeline.records()[f].state_hash)
        << "distributed run diverged from the single-machine reference at frame " << f;
  }
}

TEST(ExperimentTest, EveryBundledGameConverges) {
  for (const auto name : games::game_names()) {
    ExperimentConfig cfg = quick(180);
    cfg.game = std::string(name);
    cfg.set_rtt(milliseconds(80));
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.converged()) << name;
  }
}

TEST(ExperimentTest, UnknownGameFailsCleanly) {
  ExperimentConfig cfg = quick();
  cfg.game = "does-not-exist";
  const auto r = run_experiment(cfg);
  EXPECT_FALSE(r.converged());
  EXPECT_TRUE(r.site[0].session_failed);
  EXPECT_NE(r.site[0].failure_reason.find("unknown game"), std::string::npos);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentConfig cfg = quick(200);
  cfg.set_rtt(milliseconds(70));
  cfg.net_a_to_b.jitter = milliseconds(5);
  cfg.net_b_to_a.loss = 0.02;
  const auto r1 = run_experiment(cfg);
  const auto r2 = run_experiment(cfg);
  ASSERT_EQ(r1.site[0].timeline.size(), r2.site[0].timeline.size());
  for (std::size_t i = 0; i < r1.site[0].timeline.size(); ++i) {
    ASSERT_EQ(r1.site[0].timeline.records()[i].begin_time,
              r2.site[0].timeline.records()[i].begin_time);
    ASSERT_EQ(r1.site[0].timeline.records()[i].state_hash,
              r2.site[0].timeline.records()[i].state_hash);
  }
}

// ---- paper-shape properties ----------------------------------------------------

TEST(ExperimentTest, FullSpeedAtLowRtt) {
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(40));
  const auto r = run_experiment(cfg);
  EXPECT_NEAR(r.avg_frame_time_ms(0), 16.667, 0.05);
  EXPECT_NEAR(r.avg_frame_time_ms(1), 16.667, 0.3);
  EXPECT_LT(r.frame_time_deviation_ms(0), 0.5);
  EXPECT_LT(r.frame_time_deviation_ms(1), 1.5);
  EXPECT_LT(r.synchrony_ms(), 12.0);
}

TEST(ExperimentTest, RollbackSlaveBeginsFramesWithinAPeriodOfTheMaster) {
  // Regression: the slave's pacer estimated the master's frame with the
  // lockstep lag (6) while rollback inputs carry the input delay (2), so
  // the slave settled ~4 frames behind. With the lag read from the
  // rollback engine, every frame after rate sync has converged begins
  // within one frame period of the master's.
  ExperimentConfig cfg = quick(600);
  cfg.sync.rollback = true;
  cfg.set_rtt(milliseconds(50));
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_TRUE(r.site[1].rollback_mode);
  const double period_ms = to_ms(cfg.sync.frame_period());
  const auto diffs =
      core::synchrony_differences(r.site[0].timeline, r.site[1].timeline).samples();
  ASSERT_EQ(diffs.size(), 600u);
  double worst = 0;
  for (std::size_t f = 120; f < diffs.size(); ++f) worst = std::max(worst, std::abs(diffs[f]));
  EXPECT_LT(worst, period_ms);
  EXPECT_LT(r.synchrony_ms(), period_ms);
}

TEST(ExperimentTest, LockstepSlaveAlignsToTheMastersFrameStart) {
  // Regression: Algorithm 4 took MasterRcvTime - RTT/2 as the start of the
  // master's frame, but it is when the flush carrying that frame's input
  // left, 0-20 ms later. The slave trailed by about half a flush period
  // (synchrony 11.0 ms here) and kept correcting the wobble (devFT 0.47
  // ms). With the input's age on the message it lines up with the master
  // to within the rate-sync deadband and paces as smoothly as the master.
  ExperimentConfig cfg = quick(1200);
  cfg.set_rtt(milliseconds(50));
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_LT(r.synchrony_ms(), 5.0);
  EXPECT_LT(r.frame_time_deviation_ms(1), 0.1);
  EXPECT_NEAR(r.avg_frame_time_ms(1), 16.667, 0.05);
}

TEST(ExperimentTest, SlowdownBeyondThreshold) {
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(300));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());  // logically consistent even when slow
  EXPECT_GT(r.avg_frame_time_ms(0), 18.0);
  EXPECT_GT(r.site[0].timeline.stalled_frames(), 100u);
}

TEST(ExperimentTest, ConsistencyUnderLossDupReorder) {
  ExperimentConfig cfg = quick(400);
  cfg.set_rtt(milliseconds(60));
  for (auto* dir : {&cfg.net_a_to_b, &cfg.net_b_to_a}) {
    dir->loss = 0.1;
    dir->duplicate = 0.05;
    dir->reorder = 0.1;
    dir->reorder_extra = milliseconds(8);
    dir->jitter = milliseconds(4);
  }
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_GT(r.site[0].sync_stats.duplicate_inputs_rcvd, 0u);
}

TEST(ExperimentTest, AsymmetricPathsStillConverge) {
  ExperimentConfig cfg = quick(300);
  cfg.net_a_to_b.delay = milliseconds(10);
  cfg.net_b_to_a.delay = milliseconds(70);
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());
}

TEST(ExperimentTest, TotalNetworkFailureFreezesNotDiverges) {
  // §3.1: "In the event that the remote site or the network fails, the
  // local site will be stuck in the loop freezing the game."
  ExperimentConfig cfg = quick(120);
  cfg.net_a_to_b.loss = 1.0;  // site 0's packets all vanish
  cfg.net_b_to_a.loss = 1.0;
  cfg.watchdog = seconds(5);
  const auto r = run_experiment(cfg);
  EXPECT_FALSE(r.converged());
  EXPECT_TRUE(r.site[0].aborted);
  EXPECT_TRUE(r.site[1].aborted);
  // Neither site got past the handshake or the first real frame.
  EXPECT_LT(r.site[0].frames_completed, 10);
}

TEST(ExperimentTest, MidSessionBlackoutFreezesBothSites) {
  // One direction dies after the session is running: both sites must stop
  // making progress (no one "plays alone"), neither may diverge.
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(40));
  cfg.watchdog = seconds(30);
  // 90% loss on one direction: lockstep must hold both sites to the same
  // (degraded) pace — the slow direction throttles both, never just one.
  cfg.net_a_to_b.loss = 0.9;
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());  // 10% of the redundant resends get through
  EXPECT_EQ(r.site[0].frames_completed, r.site[1].frames_completed);
}

TEST(ExperimentTest, StalledSiteReportsStallTime) {
  ExperimentConfig cfg = quick(400);
  cfg.set_rtt(milliseconds(260));
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_GT(r.site[0].timeline.stalls().summarize().max, 0.0);
}

// ---- configuration handling ------------------------------------------------------

TEST(ExperimentTest, BootDelayAbsorbedByHandshake) {
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(40));
  cfg.site_boot_delay[1] = milliseconds(400);  // slave boots much later
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  // The startup skew is smoothed out "within only a few frames" (§3.2):
  // the back half of the run must be steady.
  Series tail;
  const auto& recs = r.site[1].timeline.records();
  for (std::size_t i = 301; i < recs.size(); ++i) {
    tail.add_dur(recs[i].begin_time - recs[i - 1].begin_time);
  }
  EXPECT_LT(tail.summarize().mean_abs_deviation, 1.0);
  EXPECT_NEAR(tail.summarize().mean, 16.667, 0.2);
}

TEST(ExperimentTest, SweepHelpersCoverPaperGrid) {
  const auto grid = paper_rtt_sweep();
  EXPECT_EQ(grid.size(), 25u);  // 0..200 step 10 (21) + 250..400 step 50 (4)
  EXPECT_EQ(grid.front(), 0);
  EXPECT_EQ(grid.back(), milliseconds(400));
  const auto points = sweep_rtt(quick(60), {milliseconds(0), milliseconds(20)});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(points[0].result.converged());
}

TEST(ExperimentTest, SmallBufFrameWorksOnLan) {
  ExperimentConfig cfg = quick(300);
  cfg.sync.buf_frames = 2;  // ~33 ms local lag
  cfg.set_rtt(milliseconds(10));
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());
  EXPECT_NEAR(r.avg_frame_time_ms(0), 16.667, 0.4);
}

TEST(ExperimentTest, MidSessionDegradationSlowsThenRecovers) {
  // RTT 40 -> 300 between seconds 4 and 8 -> 40 again. The game must slow
  // during the outage-grade latency, stay logically consistent throughout,
  // and return to 60 FPS afterwards.
  ExperimentConfig cfg = quick(900);  // 15 seconds
  cfg.set_rtt(milliseconds(40));
  cfg.net_events.push_back({seconds(4), net::NetemConfig::for_rtt(milliseconds(300))});
  cfg.net_events.push_back({seconds(8), net::NetemConfig::for_rtt(milliseconds(40))});
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());

  auto window_mean = [&](double from_s, double to_s) {
    Series s;
    const auto& recs = r.site[0].timeline.records();
    for (std::size_t i = 1; i < recs.size(); ++i) {
      const double t = to_ms(recs[i].begin_time) / 1000.0;
      if (t >= from_s && t < to_s) s.add_dur(recs[i].begin_time - recs[i - 1].begin_time);
    }
    return s.summarize().mean;
  };
  EXPECT_NEAR(window_mean(1, 4), 16.667, 0.2);   // healthy before
  EXPECT_GT(window_mean(5, 8), 18.0);            // degraded during
  EXPECT_NEAR(window_mean(11, 15), 16.667, 0.4); // recovered after
}

TEST(ExperimentTest, AsymmetricDegradationThrottlesBoth) {
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(40));
  net::NetemConfig bad = net::NetemConfig::for_rtt(milliseconds(400));
  cfg.net_events.push_back(
      {seconds(3), bad, ExperimentConfig::NetEvent::Dir::kAToB});
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  // Lockstep: even a one-directional outage slows *both* sites equally.
  EXPECT_GT(r.avg_frame_time_ms(0), 17.0);
  EXPECT_GT(r.avg_frame_time_ms(1), 17.0);
  EXPECT_EQ(r.site[0].frames_completed, r.site[1].frames_completed);
}

// ---- observers / late join (journal-version extension) -------------------------

TEST(ExperimentTest, LateObserverReplaysSessionExactly) {
  ExperimentConfig cfg = quick(600);
  cfg.set_rtt(milliseconds(60));
  cfg.observers = 1;
  cfg.observer_join_delay = seconds(3);  // joins ~frame 180 of 600
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_EQ(r.observers.size(), 1u);
  EXPECT_TRUE(r.observers[0].joined);
  EXPECT_GT(r.observers[0].snapshot_frame, 100);
  EXPECT_TRUE(r.observers_consistent());
}

TEST(ExperimentTest, MultipleObserversAtDifferentTimes) {
  ExperimentConfig cfg = quick(500);
  cfg.set_rtt(milliseconds(40));
  cfg.observers = 3;
  cfg.observer_join_delay = milliseconds(500);
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  ASSERT_EQ(r.observers.size(), 3u);
  EXPECT_TRUE(r.observers_consistent());
}

TEST(ExperimentTest, ObserverSurvivesLossyFeedPath) {
  ExperimentConfig cfg = quick(500);
  cfg.set_rtt(milliseconds(40));
  cfg.observers = 1;
  cfg.observer_join_delay = seconds(2);
  cfg.observer_net.loss = 0.15;
  cfg.observer_net.jitter = milliseconds(5);
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_TRUE(r.observers_consistent());
}

TEST(ExperimentTest, NoObserversMeansEmptyResults) {
  const auto r = run_experiment(quick(60));
  EXPECT_TRUE(r.observers.empty());
  EXPECT_TRUE(r.observers_consistent());  // vacuously
}

TEST(ExperimentTest, DesyncDetectorStaysQuietForDeterministicGames) {
  ExperimentConfig cfg = quick(400);
  cfg.set_rtt(milliseconds(80));
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.converged());
  EXPECT_EQ(r.site[0].desync_frame, -1);
  EXPECT_EQ(r.site[1].desync_frame, -1);
}

TEST(ExperimentTest, TcpTransportConvergesToo) {
  ExperimentConfig cfg = quick(300);
  cfg.set_rtt(milliseconds(50));
  cfg.transport = ExperimentConfig::Transport::kTcpLike;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.converged());
}

}  // namespace
}  // namespace rtct::testbed
