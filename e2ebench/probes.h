// Bench-owned probes around the public seams of one netplay site.
//
// The benchmark measures rtct from outside: it never edits the program, it
// wraps the three interfaces a RealtimeSession is built from —
// emu::IDeterministicGame, net::PollableTransport and core::InputSource —
// in decorators that forward every call and note what they saw.
//
// Always on (cheap enough for the untraced end-to-end runs):
//  * ScriptInput stamps when each frame's input was sampled;
//  * GameProbe stamps, per frame, when that frame was first stepped and,
//    per scripted input edge, when the edge was first stepped;
//  * TransportProbe counts calls and bytes.
// Traced runs only (SiteTrace::on()):
//  * every call is timed and kept as a span tagged with its frame;
//  * heap allocations on the site thread are counted (counting_new.cpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/input_source.h"
#include "src/emu/game.h"
#include "src/net/transport.h"

namespace e2e {

using rtct::FrameNo;
using rtct::InputWord;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

// ---- counting operator new (defined in counting_new.cpp) ------------------
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
/// Allocations made by the calling thread while counting was on.
AllocCounts thread_alloc_counts();
void set_alloc_counting(bool on);

// ---- scripted inputs -------------------------------------------------------
/// One site's input script: a button byte per frame, never 0, and each
/// change (an *edge*) to a value not seen among the previous kDistinct
/// edges, so a stepped byte names its edge unambiguously.
struct Script {
  static constexpr int kDistinct = 48;
  std::vector<std::uint8_t> value;  ///< per frame
  std::vector<FrameNo> edge_frame;  ///< frames whose value differs from the previous frame's
};
/// Holds each value for a uniformly drawn 1..max_hold frames.
Script make_script(std::uint64_t seed, FrameNo frames, int max_hold);

// ---- traced calls ----------------------------------------------------------
enum class Op : std::uint8_t {
  kSample,  ///< InputSource::input_for_frame
  kStep,
  kDigest,  ///< state_digest / state_hash
  kSave,
  kLoad,
  kSend,
  kRecv,
  kPoll,    ///< wait_readable
  kCount
};
constexpr std::size_t kOps = static_cast<std::size_t>(Op::kCount);
const char* op_name(Op op);
const char* op_layer(Op op);

struct OpStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t frame = -1;
  Op op = Op::kStep;
};

/// Per-site call ledger. Owned and written by one site thread only.
class SiteTrace {
 public:
  SiteTrace(bool on, std::size_t span_cap) : on_(on), span_cap_(span_cap) {
    if (on_) spans_.reserve(span_cap_);
  }
  [[nodiscard]] bool on() const { return on_; }
  void set_frame(FrameNo f) { frame_ = static_cast<std::int32_t>(f); }
  void record(Op op, std::int64_t start, std::int64_t end) {
    OpStats& s = ops_[static_cast<std::size_t>(op)];
    ++s.calls;
    s.ns += end - start;
    if (spans_.size() < span_cap_) spans_.push_back({start, end, frame_, op});
  }
  [[nodiscard]] const std::array<OpStats, kOps>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::size_t span_cap_;
  std::int32_t frame_ = -1;
  std::array<OpStats, kOps> ops_{};
  std::vector<Span> spans_;
};

// ---- decorators ------------------------------------------------------------
class ScriptInput final : public rtct::core::InputSource {
 public:
  ScriptInput(const Script& script, SiteTrace& trace)
      : script_(script), trace_(trace), sampled_(script.value.size(), 0) {}
  std::uint8_t input_for_frame(FrameNo frame) override;
  /// Steady-clock ns at which frame f's input was sampled (0 = never).
  [[nodiscard]] std::int64_t sampled(FrameNo f) const { return sampled_[f]; }

 private:
  const Script& script_;
  SiteTrace& trace_;
  std::vector<std::int64_t> sampled_;
};

/// Wraps a game; `scripts` (both sites', may be empty for a spectator's
/// replica) drive the edge detector.
class GameProbe final : public rtct::emu::IDeterministicGame {
 public:
  GameProbe(std::unique_ptr<rtct::emu::IDeterministicGame> inner, SiteTrace& trace,
            FrameNo frames, std::array<const Script*, 2> scripts);

  void reset() override { inner_->reset(); }
  void step_frame(InputWord input) override;
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::uint64_t state_digest(int version) const override;
  [[nodiscard]] std::vector<std::uint64_t> page_digests() const override {
    return inner_->page_digests();
  }
  [[nodiscard]] std::uint32_t page_digest_base() const override {
    return inner_->page_digest_base();
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  void save_state_into(std::vector<std::uint8_t>& out) const override;
  bool load_state(std::span<const std::uint8_t> data) override;
  [[nodiscard]] FrameNo frame() const override { return inner_->frame(); }
  [[nodiscard]] std::uint64_t content_id() const override { return inner_->content_id(); }
  [[nodiscard]] std::string content_name() const override { return inner_->content_name(); }
  [[nodiscard]] bool faulted() const override { return inner_->faulted(); }
  [[nodiscard]] const rtct::emu::IRenderableGame* renderable() const override {
    return inner_->renderable();
  }

  /// Steady-clock ns at which frame f was first stepped (0 = never).
  [[nodiscard]] std::int64_t first_step(FrameNo f) const { return first_step_[f]; }
  /// Steady-clock ns at which edge e of site s was first stepped (0 = never).
  [[nodiscard]] std::int64_t edge_presented(int s, std::size_t e) const {
    return presented_[s][e];
  }
  /// Steps whose byte named a later edge of the same site before the next
  /// expected one: an edge skipped or presented out of order.
  [[nodiscard]] std::uint64_t order_violations() const { return order_violations_; }
  [[nodiscard]] rtct::emu::IDeterministicGame& inner() { return *inner_; }

 private:
  void detect_edges(FrameNo f, InputWord input, std::int64_t t);

  std::unique_ptr<rtct::emu::IDeterministicGame> inner_;
  SiteTrace& trace_;
  std::vector<std::int64_t> first_step_;
  std::array<const Script*, 2> scripts_;
  std::array<std::size_t, 2> next_edge_{};
  std::array<std::vector<std::int64_t>, 2> presented_;
  std::uint64_t order_violations_ = 0;
};

struct TransportCounts {
  std::uint64_t sends = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t recvs = 0;
  std::uint64_t recv_hits = 0;
  std::uint64_t polls = 0;
};

/// A datagram seen at the seam: payload hash + when (traced runs only).
struct WireEvent {
  std::uint64_t hash = 0;
  std::int64_t t = 0;
};

class TransportProbe final : public rtct::net::PollableTransport {
 public:
  TransportProbe(rtct::net::PollableTransport& inner, SiteTrace& trace)
      : inner_(inner), trace_(trace) {}

  void send(std::span<const std::uint8_t> payload) override;
  std::optional<rtct::net::Payload> try_recv() override;
  bool wait_readable(rtct::Dur timeout) override;
  [[nodiscard]] bool valid() const override { return inner_.valid(); }
  [[nodiscard]] const std::string& last_error() const override { return inner_.last_error(); }
  void export_metrics(rtct::MetricsRegistry& reg) const override { inner_.export_metrics(reg); }

  [[nodiscard]] const TransportCounts& counts() const { return counts_; }
  [[nodiscard]] const std::vector<WireEvent>& sent() const { return sent_; }
  [[nodiscard]] const std::vector<WireEvent>& received() const { return received_; }

 private:
  rtct::net::PollableTransport& inner_;
  SiteTrace& trace_;
  TransportCounts counts_;
  std::vector<WireEvent> sent_;
  std::vector<WireEvent> received_;
};

/// Writes both sites' spans as Chrome trace-event JSON (opens in
/// chrome://tracing or Perfetto): one process, one thread row per site,
/// a frame span per frame with the layer calls beneath it.
bool write_chrome_trace(const std::string& path, const std::vector<const SiteTrace*>& sites,
                        std::int64_t origin_ns);

}  // namespace e2e
