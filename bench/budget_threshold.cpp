// T-BUDGET — verifies §4.2's latency-budget arithmetic.
//
// The paper explains its 140 ms threshold as
//     one-way budget = local lag (100)
//                    - inter-site sync deviation (~15)
//                    - send-buffer batching (10 avg / 20 worst)
//                    - producer/consumer thread handoff (~5)
//                    ≈ 70 ms  =>  threshold RTT ≈ 140 ms.
//
// If that arithmetic is the real mechanism (and not a coincidence), the
// measured threshold must *move* when the overheads change. This bench
// sweeps the send flush period and the dispatch delay and measures the
// "deviation knee" — the last RTT whose frame-time deviation stays under
// 2 ms, which is how the paper itself identifies its threshold ("the
// average deviation suddenly jumps"). Prediction mirrors the paper's §4.2
// subtraction: average batching delay (flush/2) + dispatch, with no
// inter-site sync deviation term — sync messages carry their input's age,
// so the slave begins each frame with the master instead of trailing it by
// the batching phase:
//     predicted RTT = 2 * (local_lag - flush/2 - dispatch).
// The threshold must also fall monotonically as either overhead grows.
//
// With the paper's own overhead parameters (flush 20 ms, dispatch 5 ms)
// this model measures a ~170 ms threshold — the paper reports ~140 ms
// (its extra -15 ms sync-deviation term was measured on real hardware,
// whose slave trailed its master).
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "src/testbed/experiment.h"

int main(int argc, char** argv) {
  using namespace rtct;
  using namespace rtct::testbed;

  const int frames = argc > 1 ? std::atoi(argv[1]) : 900;

  struct Case {
    int flush_ms;
    int dispatch_ms;
  };
  const Case cases[] = {{20, 5}, {20, 0}, {10, 5}, {10, 0}, {40, 5}, {5, 0}};

  std::printf("=== T-BUDGET: threshold RTT vs modelled overheads (%d frames/point) ===\n\n",
              frames);
  std::printf("%9s %12s | %13s %13s | %s\n", "flush(ms)", "dispatch(ms)", "predicted(ms)",
              "measured(ms)", "|diff| <= 25ms");
  std::printf("-----------------------+-----------------------------+---------------\n");

  bool all_close = true;
  double paper_params_threshold = -1;
  std::vector<int> knees;  // measured threshold per case, in `cases` order
  for (const auto& c : cases) {
    ExperimentConfig base;
    base.frames = frames;
    base.sync.send_flush_period = milliseconds(c.flush_ms);
    base.sync.send_dispatch_delay = milliseconds(c.dispatch_ms);

    const double local_lag_ms = to_ms(base.sync.local_lag());
    const double predicted = 2.0 * (local_lag_ms - c.flush_ms / 2.0 - c.dispatch_ms);

    // Measure the deviation knee on a 10 ms grid.
    int knee = -1;
    for (int ms = 40; ms <= 260; ms += 10) {
      ExperimentConfig cfg = base;
      cfg.set_rtt(milliseconds(ms));
      const auto r = run_experiment(cfg);
      const double dev =
          std::max(r.frame_time_deviation_ms(0), r.frame_time_deviation_ms(1));
      if (dev >= 2.0) break;
      knee = ms;
    }
    if (c.flush_ms == 20 && c.dispatch_ms == 5) paper_params_threshold = knee;
    knees.push_back(knee);

    const bool close = std::abs(knee - predicted) <= 25.0;
    all_close = all_close && close;
    std::printf("%9d %12d | %13.0f %13d | %s\n", c.flush_ms, c.dispatch_ms, predicted, knee,
                close ? "yes" : "NO");
  }

  // Monotone in both knobs: a case with no more flush and no more dispatch
  // than another must not measure a lower threshold.
  bool monotone = true;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    for (std::size_t j = 0; j < std::size(cases); ++j) {
      if (cases[i].flush_ms <= cases[j].flush_ms &&
          cases[i].dispatch_ms <= cases[j].dispatch_ms && knees[i] < knees[j]) {
        monotone = false;
      }
    }
  }

  std::printf("\nthreshold tracks the budget arithmetic: %s\n", all_close ? "yes" : "NO");
  std::printf("threshold falls monotonically as either overhead grows: %s\n",
              monotone ? "yes" : "NO");
  std::printf("measured threshold with the paper's overheads (flush 20 ms, dispatch 5 ms): "
              "%.0f ms — paper reports ~140 ms (see EXPERIMENTS.md)\n",
              paper_params_threshold);
  return all_close && monotone ? 0 : 1;
}
