#include "e2ebench/probes.h"

#include <time.h>

#include <cstdio>

#include "src/common/hash.h"
#include "src/common/random.h"

namespace e2e {

namespace {
std::int64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

Script make_script(std::uint64_t seed, FrameNo frames, int max_hold) {
  rtct::Rng rng(seed);
  Script s;
  s.value.resize(static_cast<std::size_t>(frames));
  std::array<int, 256> recent_count{};  // occurrences among the last kDistinct edges
  std::vector<std::uint8_t> recent;     // ring of those edge values
  recent.reserve(Script::kDistinct);
  std::size_t ring_at = 0;
  FrameNo f = 0;
  while (f < frames) {
    std::uint8_t v = 0;
    while (v == 0 || recent_count[v] != 0) v = static_cast<std::uint8_t>(rng.uniform(1, 255));
    if (recent.size() < static_cast<std::size_t>(Script::kDistinct)) {
      recent.push_back(v);
    } else {
      --recent_count[recent[ring_at]];
      recent[ring_at] = v;
      ring_at = (ring_at + 1) % recent.size();
    }
    ++recent_count[v];
    s.edge_frame.push_back(f);
    const auto hold = static_cast<FrameNo>(rng.uniform(1, max_hold));
    for (FrameNo i = 0; i < hold && f < frames; ++i, ++f) s.value[f] = v;
  }
  return s;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kSample: return "input_for_frame";
    case Op::kStep: return "step_frame";
    case Op::kDigest: return "state_digest";
    case Op::kSave: return "save_state";
    case Op::kLoad: return "load_state";
    case Op::kSend: return "send";
    case Op::kRecv: return "try_recv";
    case Op::kPoll: return "wait_readable";
    case Op::kCount: break;
  }
  return "?";
}

const char* op_layer(Op op) {
  switch (op) {
    case Op::kSample: return "input";
    case Op::kSend:
    case Op::kRecv:
    case Op::kPoll: return "net";
    default: return "emu";
  }
}

// ---- ScriptInput -----------------------------------------------------------

std::uint8_t ScriptInput::input_for_frame(FrameNo frame) {
  const std::int64_t t = now_ns();
  trace_.set_frame(frame);
  const auto i = static_cast<std::size_t>(frame);
  std::uint8_t v = 0;
  if (i < script_.value.size()) {
    sampled_[i] = t;
    v = script_.value[i];
  }
  if (trace_.on()) trace_.record(Op::kSample, t, now_ns());
  return v;
}

// ---- GameProbe -------------------------------------------------------------

GameProbe::GameProbe(std::unique_ptr<rtct::emu::IDeterministicGame> inner, SiteTrace& trace,
                     FrameNo frames, std::array<const Script*, 2> scripts)
    : inner_(std::move(inner)),
      trace_(trace),
      first_step_(static_cast<std::size_t>(frames), 0),
      scripts_(scripts) {
  for (int s = 0; s < 2; ++s) {
    if (scripts_[s] != nullptr) presented_[s].assign(scripts_[s]->edge_frame.size(), 0);
  }
}

void GameProbe::step_frame(InputWord input) {
  const FrameNo f = inner_->frame();
  const std::int64_t t0 = trace_.on() ? now_ns() : 0;
  inner_->step_frame(input);
  const std::int64_t t1 = now_ns();
  if (f >= 0 && static_cast<std::size_t>(f) < first_step_.size() && first_step_[f] == 0) {
    first_step_[f] = t1;
  }
  detect_edges(f, input, t1);
  if (trace_.on()) trace_.record(Op::kStep, t0, t1);
}

void GameProbe::detect_edges(FrameNo f, InputWord input, std::int64_t t) {
  // Rollback re-steps old frames with corrected inputs, so a stepped byte
  // may name any recent edge; it presents a *new* edge only when it is the
  // next one expected. Naming one further ahead means an edge was skipped.
  constexpr std::size_t kLookahead = 8;  // << Script::kDistinct - rollback depth
  for (int s = 0; s < 2; ++s) {
    const Script* script = scripts_[s];
    if (script == nullptr) continue;
    const std::uint8_t b = rtct::player_byte(input, s);
    std::size_t& next = next_edge_[s];
    const std::size_t n = script->edge_frame.size();
    for (std::size_t k = 0; k <= kLookahead && next + k < n; ++k) {
      const FrameNo ef = script->edge_frame[next + k];
      if (ef > f || script->value[ef] != b) continue;
      if (k == 0) {
        presented_[s][next] = t;
      } else {
        ++order_violations_;
      }
      next += k + 1;
      break;
    }
  }
}

std::uint64_t GameProbe::state_hash() const {
  if (!trace_.on()) return inner_->state_hash();
  const std::int64_t t0 = now_ns();
  const auto h = inner_->state_hash();
  trace_.record(Op::kDigest, t0, now_ns());
  return h;
}

std::uint64_t GameProbe::state_digest(int version) const {
  if (!trace_.on()) return inner_->state_digest(version);
  const std::int64_t t0 = now_ns();
  const auto h = inner_->state_digest(version);
  trace_.record(Op::kDigest, t0, now_ns());
  return h;
}

std::vector<std::uint8_t> GameProbe::save_state() const {
  std::vector<std::uint8_t> out;
  save_state_into(out);
  return out;
}

void GameProbe::save_state_into(std::vector<std::uint8_t>& out) const {
  if (!trace_.on()) return inner_->save_state_into(out);
  const std::int64_t t0 = now_ns();
  inner_->save_state_into(out);
  trace_.record(Op::kSave, t0, now_ns());
}

bool GameProbe::load_state(std::span<const std::uint8_t> data) {
  if (!trace_.on()) return inner_->load_state(data);
  const std::int64_t t0 = now_ns();
  const bool ok = inner_->load_state(data);
  trace_.record(Op::kLoad, t0, now_ns());
  return ok;
}

// ---- TransportProbe --------------------------------------------------------

void TransportProbe::send(std::span<const std::uint8_t> payload) {
  ++counts_.sends;
  counts_.bytes_sent += payload.size();
  if (!trace_.on()) return inner_.send(payload);
  const std::int64_t t0 = now_ns();
  inner_.send(payload);
  trace_.record(Op::kSend, t0, now_ns());
  sent_.push_back({rtct::fnv1a64(payload), t0});
}

std::optional<rtct::net::Payload> TransportProbe::try_recv() {
  ++counts_.recvs;
  const std::int64_t t0 = trace_.on() ? now_ns() : 0;
  auto got = inner_.try_recv();
  if (got) ++counts_.recv_hits;
  if (trace_.on()) {
    const std::int64_t t1 = now_ns();
    trace_.record(Op::kRecv, t0, t1);
    if (got) received_.push_back({rtct::fnv1a64(*got), t1});
  }
  return got;
}

bool TransportProbe::wait_readable(rtct::Dur timeout) {
  ++counts_.polls;
  if (!trace_.on()) return inner_.wait_readable(timeout);
  const std::int64_t t0 = now_ns();
  const bool r = inner_.wait_readable(timeout);
  trace_.record(Op::kPoll, t0, now_ns());
  return r;
}

// ---- Chrome trace export ---------------------------------------------------

bool write_chrome_trace(const std::string& path, const std::vector<const SiteTrace*>& sites,
                        std::int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto event = [&](const char* name, const char* cat, int tid, std::int64_t start,
                   std::int64_t end, std::int32_t frame) {
    std::fprintf(f, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%d}}",
                 first ? "" : ",\n", name, cat, tid, (start - origin_ns) / 1e3,
                 (end - start) / 1e3, frame);
    first = false;
  };
  for (std::size_t site = 0; site < sites.size(); ++site) {
    const auto& spans = sites[site]->spans();
    const int tid = static_cast<int>(site);
    // Frame spans run from one input sample to the next.
    const Span* open = nullptr;
    for (const Span& s : spans) {
      if (s.op != Op::kSample) continue;
      if (open != nullptr) event("frame", "frame", tid, open->start, s.start, open->frame);
      open = &s;
    }
    for (const Span& s : spans) event(op_name(s.op), op_layer(s.op), tid, s.start, s.end, s.frame);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
