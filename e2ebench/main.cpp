// e2e_netplay — the end-to-end netplay benchmark program.
//
// Runs two real RealtimeSession sites (one thread each) over loopback UDP,
// directly or through an in-process RelayServer, with in-process
// SpectatorClient observers driven from the main thread. Every layer is
// measured from outside through the probes in probes.h; no program file
// is changed or instrumented.
//
//   e2e_netplay --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out FILE] [--frames N] [--matches M]
//
// A run plays setup probes (matches stopped as soon as both sites begin
// frame 0) and then several matches back to back. --trace 0 prints the
// end-to-end metrics, --trace 1 first plays untraced matches (the
// overhead baseline) and then traced ones, and prints the per-layer
// ledger. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where `attempted` counts frames and `failed` the frames of matches that
// failed any correctness check.
#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "e2ebench/probes.h"
#include "src/common/stats.h"
#include "src/common/telemetry.h"
#include "src/core/realtime.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/cores/registry.h"
#include "src/net/udp_socket.h"
#include "src/relay/relay_client.h"
#include "src/relay/relay_server.h"

namespace e2e {
namespace {

using namespace rtct;

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  const char* game;
  bool paced;         ///< 60 fps schedule; otherwise the pacer never sleeps
  bool rollback;
  bool relay;
  int observers;      ///< SpectatorClients served by site 0
  int max_hold;       ///< each scripted input is held 1..max_hold frames
  /// Paced workloads: timed frames per match (after the warm-up); 510 gives
  /// each match's frame-time p99 ten samples beyond it.
  FrameNo match_frames;
};

constexpr Workload kWorkloads[] = {
    {"lockstep_spectated_60fps", "ac16:duel", true, false, false, 4, 1, 510},
    {"lockstep_maxrate", "ac16:duel", false, false, false, 0, 1, 0},
    {"rollback_relay_60fps", "agent86:skirmish", true, true, true, 0, 6, 510},
};

/// Frames at the start of every match that are played and checked but not
/// timed: the slave pacer's first alignment to the master happens here, once
/// per match, while a real session pays it once per game.
constexpr FrameNo kWarmupFrames = 60;
constexpr int kMaxrateCfps = 1'000'000;
constexpr FrameNo kMaxrateWarmupFrames = 2000;
constexpr int kMaxrateMatches = 15;
constexpr double kMaxrateNominalFps = 12'500;
constexpr std::size_t kSpanCap = 50'000;  ///< spans kept per site for the trace file
/// Setup probes per run, spread between the matches and on top of one setup
/// per match: setup_s is the median of all of them.
constexpr int kSetupProbes = 200;
constexpr FrameNo kProbeFrames = 600;  ///< never reached: a probe is stopped at frame 0

core::RealtimeConfig session_config(const Workload& w, FrameNo frames) {
  core::RealtimeConfig cfg;
  cfg.frames = static_cast<int>(frames);
  cfg.sync.rollback = w.rollback;
  if (!w.paced) {
    cfg.sync.cfps = kMaxrateCfps;
    cfg.sync.send_flush_period = cfg.sync.frame_period();
  }
  return cfg;
}

// ---- one site and one observer ---------------------------------------------

struct Snapshot {  // per-site counters read from the frame hook
  std::int64_t t = 0;
  std::int64_t cpu = 0;
  AllocCounts alloc;
  TransportCounts net;
  std::array<OpStats, kOps> ops{};
  // Site 0 only: the other threads' CPU at the same instant.
  std::int64_t process_cpu = 0;
  std::int64_t peer_cpu = 0;
  std::int64_t main_cpu = 0;
};

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Site {
  Site(const Workload& w, FrameNo frames, bool traced, const std::array<const Script*, 2>& scripts,
       int id)
      : trace(traced, kSpanCap),
        input(*scripts[id], trace),
        game(cores::make_game(w.game), trace, frames, scripts) {}

  SiteTrace trace;
  ScriptInput input;
  GameProbe game;
  std::unique_ptr<TransportProbe> transport;
  std::unique_ptr<core::RealtimeSession> session;
  std::thread thread;
  bool ok = false;
  std::string error;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  Snapshot first;  ///< at the hook of the last warm-up frame
  Snapshot last;   ///< at the last frame's hook
};

struct Observer {
  Observer(const Workload& w, FrameNo frames, const core::SyncConfig& cfg, std::uint16_t port)
      : sock("127.0.0.1", 0),
        trace(false, 0),
        game(cores::make_game(w.game), trace, frames, {nullptr, nullptr}),
        client(game, cfg) {
    sock.connect_peer("127.0.0.1", port);
  }
  net::UdpSocket sock;
  SiteTrace trace;
  GameProbe game;
  core::SpectatorClient client;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t feed_bytes = 0;
  std::int64_t join_sent = 0;
  std::int64_t joined = 0;
};

// ---- accumulation ----------------------------------------------------------

struct Samples {
  std::vector<double> xs;
  void add(double x) { xs.push_back(x); }
  [[nodiscard]] double pct(double p) const { return xs.empty() ? 0 : rtct::percentile(xs, p); }
  [[nodiscard]] double median() const { return pct(50); }
  [[nodiscard]] std::size_t n() const { return xs.size(); }
};

struct Ratio {  // pooled sum / pooled base
  double sum = 0;
  double base = 0;
  void add(double s, double b) {
    sum += s;
    base += b;
  }
  [[nodiscard]] double value() const { return base > 0 ? sum / base : 0; }
};

/// Everything measured across the matches of one kind (untraced or traced).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         ///< attempted frames of matches with a failed check
  std::uint64_t failed_checks = 0;  ///< checks failed in the match being played
  // end to end
  Samples setup_s, local_ms, remote_ms, frame_ms, spectator_ms;
  Samples frame_ms_p99;  ///< one per match: host hiccups come in bursts that spoil a match
  std::array<Samples, 2> local_from, remote_from;  ///< split by the edge's site
  Ratio fps, cpu_ms, wire_bytes, spectator_bytes;
  // per layer
  std::array<OpStats, kOps> ops{};
  Ratio site_frames;  ///< site-frames inside the hook windows (base of the per-frame ledger)
  Ratio window_ns;
  TransportCounts net;
  AllocCounts alloc;
  Samples one_way_us, late_ms, handshake_ms, teardown_s, join_ms;
  Ratio stall_ms, sleep_ms, frame_dev_ms, sync_ms, messages, retransmitted;
  Ratio rollbacks, resimulated, mispredicted;
  int max_depth = 0;
  double overruns = 0;
  Ratio snapshot_bytes, feed_bytes, observer_cpu_ms, relay_datagrams, relay_cpu_ms;
};

void note_failure(Ledger& l, std::uint64_t n, const char* what, int match) {
  if (n == 0) return;
  l.failed_checks += n;
  std::fprintf(stderr, "e2e: match %d: %llu failure(s): %s\n", match,
               static_cast<unsigned long long>(n), what);
}

/// Collapses one player's byte over the canonical history (leading zeros —
/// frames before the first input arrived — skipped) into runs and checks
/// them against the script's edges. Returns the number of edges the history
/// presents; counts mismatches into `bad`. The history's leading all-zero
/// frames are the input lag, so every edge scripted at least that many
/// frames before the end must be there; each one missing counts too.
std::size_t check_canonical_edges(const std::vector<InputWord>& history, int site,
                                  const Script& script, std::uint64_t& bad) {
  std::size_t runs = 0;
  std::uint8_t prev = 0;
  for (const InputWord w : history) {
    const std::uint8_t b = player_byte(w, site);
    if (b == prev) continue;
    if (runs >= script.edge_frame.size() || script.value[script.edge_frame[runs]] != b) ++bad;
    prev = b;
    ++runs;
  }
  const auto lag = std::find_if(history.begin(), history.end(),
                                [](InputWord w) { return w != 0; }) -
                   history.begin();
  const auto last_due = static_cast<FrameNo>(std::ssize(history) - lag);
  const auto expected = static_cast<std::size_t>(
      std::lower_bound(script.edge_frame.begin(), script.edge_frame.end(), last_due) -
      script.edge_frame.begin());
  if (runs < expected) bad += expected - runs;
  return runs;
}

// ---- one match ---------------------------------------------------------------

struct MatchContext {
  const Workload& w;
  std::uint64_t seed;
  int index;
  FrameNo frames;
  bool traced;
  relay::RelayServer* relay;
  const std::string* trace_out;  ///< non-null: write this match's spans there
  /// A setup probe only measures setup_s: it plays until both sites have
  /// begun frame 0, then stops them.
  bool probe = false;
};

bool make_transports(const MatchContext& m, std::uint64_t content_id,
                     std::array<std::unique_ptr<net::PollableTransport>, 2>& out) {
  if (m.relay != nullptr) {
    relay::RelayLobby lobby0("127.0.0.1", m.relay->lobby_port());
    relay::RelayLobby lobby1("127.0.0.1", m.relay->lobby_port());
    const auto r0 = lobby0.create(content_id);
    if (!r0) return false;
    const auto r1 = lobby1.join(r0->conn);
    if (!r1) return false;
    out[0] = lobby0.into_endpoint(*r0);
    out[1] = lobby1.into_endpoint(*r1);
    return true;
  }
  auto s0 = std::make_unique<net::UdpSocket>("127.0.0.1", 0);
  auto s1 = std::make_unique<net::UdpSocket>("127.0.0.1", 0);
  if (!s0->valid() || !s1->valid()) return false;
  s0->connect_peer("127.0.0.1", s1->local_port());
  s1->connect_peer("127.0.0.1", s0->local_port());
  out[0] = std::move(s0);
  out[1] = std::move(s1);
  return true;
}

void play_match(const MatchContext& m, Ledger& L) {
  const Workload& w = m.w;
  const FrameNo N = m.frames;
  const core::RealtimeConfig cfg = session_config(w, N);

  std::array<Script, 2> scripts;
  for (int s = 0; s < 2; ++s) {
    const auto salt = static_cast<std::uint64_t>(m.index) * 2 + static_cast<std::uint64_t>(s);
    scripts[s] = make_script(m.seed * 0x9E3779B97F4A7C15ull + salt, N, w.max_hold);
  }
  const std::array<const Script*, 2> script_ptrs{&scripts[0], &scripts[1]};
  set_alloc_counting(m.traced);

  const FrameNo warm = std::min(kWarmupFrames, N / 4);
  const FrameNo start = std::max<FrameNo>(warm - 1, 0);  // hook that opens the timed window
  const double window_frames = static_cast<double>(N - 1 - start);
  const std::int64_t t_construct = now_ns();
  std::array<std::unique_ptr<Site>, 2> sites;
  for (int s = 0; s < 2; ++s) {
    sites[s] = std::make_unique<Site>(w, N, m.traced, script_ptrs, s);
  }
  std::array<std::unique_ptr<net::PollableTransport>, 2> raw;
  const relay::RelayServer::Stats relay_before =
      m.relay != nullptr ? m.relay->stats() : relay::RelayServer::Stats{};
  const std::uint64_t attempts = m.probe ? 1 : static_cast<std::uint64_t>(N);
  L.attempted += attempts;
  if (!make_transports(m, sites[0]->game.content_id(), raw)) {
    note_failure(L, attempts, "transport setup", m.index);
    return;
  }
  net::UdpSocket spectator_port("127.0.0.1", 0);
  for (int s = 0; s < 2; ++s) {
    Site& site = *sites[s];
    site.transport = std::make_unique<TransportProbe>(*raw[s], site.trace);
    site.session = std::make_unique<core::RealtimeSession>(static_cast<SiteId>(s), site.game,
                                                          site.input, *site.transport, cfg);
  }
  if (w.observers > 0) sites[0]->session->serve_spectators(&spectator_port);
  std::vector<std::unique_ptr<Observer>> observers;
  for (int i = 0; i < w.observers; ++i) {
    observers.push_back(
        std::make_unique<Observer>(w, N, cfg.sync, spectator_port.local_port()));
  }

  // CPU clocks of the threads site 0's hook samples besides its own.
  clockid_t main_clock{};
  pthread_getcpuclockid(pthread_self(), &main_clock);
  std::atomic<clockid_t> peer_clock{0};
  std::atomic<bool> peer_clock_set{false};
  std::atomic<int> begun{0};   // sites past frame 0 (setup probes)
  std::atomic<int> events{0};  // frame-0 hooks and site exits, which a probe waits for

  for (int s = 0; s < 2; ++s) {
    Site& site = *sites[s];
    site.session->set_frame_hook([&site, &peer_clock, &peer_clock_set, &begun, &events,
                                  main_clock, s, start, N, probe = m.probe](
                                     const emu::IDeterministicGame&, const core::FrameRecord& r) {
      if (probe) {
        if (r.frame == 0) {
          begun.fetch_add(1);
          events.fetch_add(1);
          events.notify_one();
        }
        return;
      }
      if (r.frame != start && r.frame != N - 1) return;
      Snapshot& snap = r.frame == start ? site.first : site.last;
      snap.t = now_ns();
      snap.cpu = thread_cpu_ns();
      snap.alloc = thread_alloc_counts();
      snap.net = site.transport->counts();
      snap.ops = site.trace.ops();
      if (s == 0) {
        snap.process_cpu = process_cpu_ns();
        snap.main_cpu = clock_ns(main_clock);
        if (peer_clock_set.load()) snap.peer_cpu = clock_ns(peer_clock.load());
      }
    });
  }
  std::atomic<int> running{2};
  for (int s = 0; s < 2; ++s) {
    Site& site = *sites[s];
    site.thread = std::thread([&site, &running, &events] {
      site.run_start = now_ns();
      site.ok = site.session->run(&site.error);
      site.run_end = now_ns();
      running.fetch_sub(1);
      events.fetch_add(1);
      events.notify_one();
    });
  }
  clockid_t c1{};
  if (pthread_getcpuclockid(sites[1]->thread.native_handle(), &c1) == 0) {
    peer_clock.store(c1);
    peer_clock_set.store(true);
  }

  if (m.probe) {
    // Blocks rather than polls, so the main thread takes no CPU from the
    // set-up it measures.
    for (int e = events.load(); begun.load() < 2 && running.load() == 2; e = events.load()) {
      events.wait(e);
    }
    for (auto& site : sites) site->session->request_stop();
  }
  // Drive the observers until they have applied the last frame (or the
  // sites are done and the host's post-game grace has certainly ended).
  if (!m.probe && !observers.empty()) {
    std::vector<pollfd> fds;
    for (auto& o : observers) fds.push_back({o->sock.native_fd(), POLLIN, 0});
    std::int64_t sites_done_at = 0;
    for (;;) {
      const std::int64_t t = now_ns();
      bool caught_up = true;
      for (auto& o : observers) {
        if (auto msg = o->client.make_message(t - t_construct)) {
          if (std::holds_alternative<core::JoinRequestMsg>(*msg) && o->join_sent == 0) {
            o->join_sent = t;
          }
          o->sock.send(core::encode_message(*msg));
        }
        caught_up = caught_up && o->client.applied_frame() >= N - 1;
      }
      if (running.load() == 0) {
        if (sites_done_at == 0) sites_done_at = t;
        if (caught_up || t - sites_done_at > 6'000'000'000) break;
      }
      ::poll(fds.data(), fds.size(), 2);
      for (auto& o : observers) {
        while (auto payload = o->sock.try_recv()) {
          const auto msg = core::decode_message(*payload);
          if (!msg) continue;
          if (std::holds_alternative<core::SnapshotMsg>(*msg)) {
            o->snapshot_bytes += payload->size();
          } else {
            o->feed_bytes += payload->size();
          }
          o->client.ingest(*msg);
        }
        o->client.step_available();
        if (o->joined == 0 && o->client.joined()) o->joined = now_ns();
      }
    }
  }
  for (auto& site : sites) site->thread.join();
  const relay::RelayServer::Stats relay_after =
      m.relay != nullptr ? m.relay->stats() : relay::RelayServer::Stats{};
  for (auto& t : raw) {
    if (auto* ep = dynamic_cast<relay::RelayEndpoint*>(t.get())) ep->leave();
  }
  set_alloc_counting(false);

  // ---- correctness gate ----------------------------------------------------
  const Site& a = *sites[0];
  const Site& b = *sites[1];
  const std::int64_t both_begun = std::max(a.input.sampled(0), b.input.sampled(0));
  if (m.probe) {
    const bool began = a.input.sampled(0) != 0 && b.input.sampled(0) != 0;
    note_failure(L, !began, "setup probe never reached frame 0", m.index);
    if (began) L.setup_s.add((both_begun - t_construct) / 1e9);
    return;
  }
  const auto& ta = a.session->timeline().records();
  const auto& tb = b.session->timeline().records();
  for (const Site* s : {&a, &b}) {
    if (!s->ok) std::fprintf(stderr, "e2e: match %d: site error: %s\n", m.index, s->error.c_str());
  }
  const FrameNo completed = static_cast<FrameNo>(std::min(ta.size(), tb.size()));
  note_failure(L, static_cast<std::uint64_t>(N - completed), "frames not completed", m.index);
  if (completed == N && (!a.ok || !b.ok)) note_failure(L, 1, "session reported an error", m.index);
  std::uint64_t mismatched = 0;
  for (FrameNo f = 0; f < completed; ++f) mismatched += ta[f].state_hash != tb[f].state_hash;
  note_failure(L, mismatched, "digest mismatch between sites", m.index);
  if (completed < N) return;  // nothing below is meaningful on a broken match

  const core::Replay& replay = a.session->replay();
  const int digest_version = replay.digest_version();
  const auto& history = replay.inputs();
  note_failure(L, history != b.session->replay().inputs(), "replays differ between sites",
               m.index);
  std::array<std::size_t, 2> presented_edges{};
  std::uint64_t edge_failures = a.game.order_violations() + b.game.order_violations();
  for (int s = 0; s < 2; ++s) {
    presented_edges[s] = check_canonical_edges(history, s, scripts[s], edge_failures);
    for (std::size_t e = 0; e < presented_edges[s] && e < scripts[s].edge_frame.size(); ++e) {
      edge_failures += a.game.edge_presented(s, e) == 0;
      edge_failures += b.game.edge_presented(s, e) == 0;
    }
  }
  note_failure(L, edge_failures, "input edges missing or out of order", m.index);
  for (const auto& o : observers) {
    const FrameNo f = o->client.applied_frame();
    const bool ok = f == N - 1 && o->game.inner().state_digest(digest_version) == ta[f].state_hash;
    note_failure(L, !ok, "observer replica diverged or fell behind", m.index);
  }
  {
    auto fresh = cores::make_game(w.game);
    const bool ok = replay.apply(*fresh, nullptr, digest_version) && fresh->frame() == N &&
                    fresh->state_digest(digest_version) == ta.back().state_hash;
    note_failure(L, !ok, "replay re-execution disagrees with the timeline", m.index);
  }

  // ---- end to end ----------------------------------------------------------
  // Timed window: from the end of the warm-up to the end of the last frame.
  L.setup_s.add((both_begun - t_construct) / 1e9);
  L.fps.add(window_frames, (std::max(a.last.t, b.last.t) - std::min(a.first.t, b.first.t)) / 1e9);
  for (const Site* s : {&a, &b}) {
    L.cpu_ms.add((s->last.cpu - s->first.cpu) / 1e6, window_frames);
    L.site_frames.add(window_frames, 1);
    L.window_ns.add(static_cast<double>(s->last.t - s->first.t), 1);
  }
  L.wire_bytes.add(static_cast<double>(a.last.net.bytes_sent - a.first.net.bytes_sent +
                                       b.last.net.bytes_sent - b.first.net.bytes_sent),
                   window_frames);
  Samples frame_ms;
  for (const auto* t : {&ta, &tb}) {
    for (auto i = static_cast<std::size_t>(warm) + 1; i < t->size(); ++i) {
      frame_ms.add(((*t)[i].begin_time - (*t)[i - 1].begin_time) / 1e6);
    }
  }
  L.frame_ms.xs.insert(L.frame_ms.xs.end(), frame_ms.xs.begin(), frame_ms.xs.end());
  L.frame_ms_p99.add(frame_ms.pct(99));
  // An input is due when its frame was scheduled to begin: where the
  // pacer's end_frame() put the next frame start (ready + compute + granted
  // wait of the frame before). Sampling after that is generator lateness.
  const std::array<const Site*, 2> by_id{&a, &b};
  auto lateness = [&](int s, FrameNo f) -> std::int64_t {
    if (f == 0) return 0;  // frame 0 starts when the handshake ends
    const auto& t = by_id[s]->session->timeline().records();
    const core::FrameRecord& prev = t[f - 1];
    return t[f].begin_time - (prev.input_ready_time + prev.compute + prev.wait);
  };
  auto due = [&](int s, FrameNo f) { return by_id[s]->input.sampled(f) - lateness(s, f); };
  for (int s = 0; s < 2; ++s) {
    for (std::size_t e = 0; e < presented_edges[s]; ++e) {
      if (scripts[s].edge_frame[e] < warm) continue;
      const std::int64_t d = due(s, scripts[s].edge_frame[e]);
      const double local = (by_id[s]->game.edge_presented(s, e) - d) / 1e6;
      L.local_ms.add(local);
      L.local_from[s].add(local);
      const double remote = (by_id[1 - s]->game.edge_presented(s, e) - d) / 1e6;
      L.remote_ms.add(remote);
      L.remote_from[s].add(remote);
    }
    for (FrameNo f = warm; f < N; ++f) L.late_ms.add(lateness(s, f) / 1e6);
  }
  for (const auto& o : observers) {
    for (FrameNo f = warm; f < N; ++f) {
      const std::int64_t applied = o->game.first_step(f);
      if (applied != 0 && a.game.first_step(f) != 0) {
        L.spectator_ms.add((applied - a.game.first_step(f)) / 1e6);
      }
    }
    L.spectator_bytes.add(static_cast<double>(o->snapshot_bytes + o->feed_bytes),
                          static_cast<double>(N));
    L.snapshot_bytes.add(static_cast<double>(o->snapshot_bytes), 1);
    L.feed_bytes.add(static_cast<double>(o->feed_bytes), static_cast<double>(N));
    if (o->joined != 0 && o->join_sent != 0) L.join_ms.add((o->joined - o->join_sent) / 1e6);
  }

  // ---- per layer -----------------------------------------------------------
  for (const Site* s : {&a, &b}) {
    for (std::size_t i = 0; i < kOps; ++i) {
      L.ops[i].calls += s->last.ops[i].calls - s->first.ops[i].calls;
      L.ops[i].ns += s->last.ops[i].ns - s->first.ops[i].ns;
    }
    L.net.sends += s->last.net.sends - s->first.net.sends;
    L.net.recvs += s->last.net.recvs - s->first.net.recvs;
    L.net.recv_hits += s->last.net.recv_hits - s->first.net.recv_hits;
    L.net.polls += s->last.net.polls - s->first.net.polls;
    L.alloc.count += s->last.alloc.count - s->first.alloc.count;
    L.alloc.bytes += s->last.alloc.bytes - s->first.alloc.bytes;
    L.handshake_ms.add((s->input.sampled(0) - s->run_start) / 1e6);
    L.teardown_s.add((s->run_end - s->last.t) / 1e9);
    const auto& tl = s->session->timeline();
    L.stall_ms.add(tl.stalls().summarize().mean * static_cast<double>(N), static_cast<double>(N));
    L.sleep_ms.add(tl.waits().summarize().mean * static_cast<double>(N), static_cast<double>(N));
    L.frame_dev_ms.add(tl.frame_times().summarize().mean_abs_deviation, 1);
    const auto& st = s->session->stats();
    L.messages.add(static_cast<double>(st.messages_made), static_cast<double>(N));
    L.retransmitted.add(static_cast<double>(st.inputs_retransmitted), static_cast<double>(N));
    if (const auto* rb = s->session->rollback_stats()) {
      L.rollbacks.add(static_cast<double>(rb->rollbacks), static_cast<double>(N));
      L.resimulated.add(static_cast<double>(rb->frames_resimulated), static_cast<double>(N));
      L.mispredicted.add(static_cast<double>(rb->mispredicted_frames),
                         static_cast<double>(rb->predicted_frames));
      L.max_depth = std::max(L.max_depth, rb->max_rollback_depth);
    }
    MetricsRegistry reg;
    s->session->export_metrics(reg);
    L.overruns += reg.value("pacer.overruns").value_or(0);
  }
  std::fprintf(stderr, "e2e: match %d teardown: site 0 %.3f s, site 1 %.3f s\n", m.index,
               (a.run_end - a.last.t) / 1e9, (b.run_end - b.last.t) / 1e9);
  for (FrameNo f = warm; f < N; ++f) {
    L.sync_ms.add(std::abs(a.input.sampled(f) - b.input.sampled(f)) / 1e6, 1);
  }
  // One-way delay: a payload sent by one site, matched by hash to its
  // arrival at the other (first send of that payload wins).
  for (int s = 0; s < 2; ++s) {
    std::unordered_map<std::uint64_t, std::int64_t> sent_at;
    for (const WireEvent& e : by_id[s]->transport->sent()) sent_at.emplace(e.hash, e.t);
    for (const WireEvent& e : by_id[1 - s]->transport->received()) {
      const auto it = sent_at.find(e.hash);
      if (it != sent_at.end() && e.t >= it->second) L.one_way_us.add((e.t - it->second) / 1e3);
    }
  }
  const std::int64_t others = (a.last.cpu - a.first.cpu) + (a.last.peer_cpu - a.first.peer_cpu) +
                              (a.last.main_cpu - a.first.main_cpu);
  L.relay_cpu_ms.add((a.last.process_cpu - a.first.process_cpu - others) / 1e6, window_frames);
  if (!observers.empty()) {
    L.observer_cpu_ms.add((a.last.main_cpu - a.first.main_cpu) / 1e6,
                          window_frames * static_cast<double>(observers.size()));
  }
  L.relay_datagrams.add(
      static_cast<double>(relay_after.datagrams_forwarded - relay_before.datagrams_forwarded),
      static_cast<double>(N));

  if (m.trace_out != nullptr && m.traced) {
    if (!write_chrome_trace(*m.trace_out, {&a.trace, &b.trace}, t_construct)) {
      std::fprintf(stderr, "e2e: could not write %s\n", m.trace_out->c_str());
    }
  }
}

/// Plays one match. A match that fails any check fails all its attempted
/// frames, so a single failure moves success_frac far beyond its bound.
void play(const MatchContext& m, Ledger& L) {
  const std::uint64_t attempted = L.attempted;
  L.failed_checks = 0;
  play_match(m, L);
  if (L.failed_checks != 0) L.failed += L.attempted - attempted;
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Ledger& L, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              L.failed == 0 ? "true" : "false", static_cast<unsigned long long>(L.attempted),
              static_cast<unsigned long long>(L.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The worse-off player's median. The two players' latencies can differ by
/// a mode (rollback: the slave trails the master), and a pooled median would
/// then sit between the modes and flip between them from run to run.
double worse_median(const std::array<Samples, 2>& by_player) {
  return std::max(by_player[0].median(), by_player[1].median());
}

std::vector<Metric> end_to_end(const Ledger& L) {
  return {
      {"setup_s", L.setup_s.median(), "s"},
      {"frames_per_s", L.fps.value(), "1/s"},
      {"cpu_ms_per_frame", L.cpu_ms.value(), "ms"},
      {"local_input_ms_p50", worse_median(L.local_from), "ms"},
      {"local_input_ms_p99", L.local_ms.pct(99), "ms"},
      {"remote_input_ms_p50", worse_median(L.remote_from), "ms"},
      {"remote_input_ms_p99", L.remote_ms.pct(99), "ms"},
      {"frame_time_ms_p99", L.frame_ms_p99.median(), "ms"},
      {"wire_bytes_per_frame", L.wire_bytes.value(), "B"},
  };
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// The traced ledger; the untraced figures give the tracing overhead.
std::vector<Metric> per_layer(const Ledger& L, double untraced_fps, double untraced_cpu_ms) {
  const double frames = std::max(L.site_frames.sum, 1.0);
  auto per_frame = [&](double x) { return x / frames; };
  auto op = [&](Op o) { return L.ops[static_cast<std::size_t>(o)]; };
  auto mean_us = [&](Op o) {
    const OpStats s = op(o);
    return s.calls > 0 ? s.ns / 1e3 / static_cast<double>(s.calls) : 0.0;
  };
  const double emu_ns = static_cast<double>(op(Op::kStep).ns + op(Op::kDigest).ns +
                                            op(Op::kSave).ns + op(Op::kLoad).ns);
  const double net_ns = static_cast<double>(op(Op::kSend).ns + op(Op::kRecv).ns + op(Op::kPoll).ns);
  const double input_ns = static_cast<double>(op(Op::kSample).ns);
  return {
      {"net.recv_calls_per_frame", per_frame(static_cast<double>(L.net.recvs)), "count"},
      {"net.recv_hit_ratio",
       L.net.recvs > 0 ? static_cast<double>(L.net.recv_hits) / static_cast<double>(L.net.recvs)
                       : 0.0,
       "ratio"},
      {"net.recv_us", mean_us(Op::kRecv), "us"},
      {"net.send_calls_per_frame", per_frame(static_cast<double>(L.net.sends)), "count"},
      {"net.send_us", mean_us(Op::kSend), "us"},
      {"net.poll_calls_per_frame", per_frame(static_cast<double>(L.net.polls)), "count"},
      {"net.poll_ms_per_frame", per_frame(static_cast<double>(op(Op::kPoll).ns)) / 1e6, "ms"},
      {"net.one_way_us_p50", L.one_way_us.pct(50), "us"},
      {"net.one_way_us_p99", L.one_way_us.pct(99), "us"},
      {"net.self_us_per_frame", per_frame(net_ns) / 1e3, "us"},
      {"alloc.count_per_frame", per_frame(static_cast<double>(L.alloc.count)), "count"},
      {"alloc.bytes_per_frame", per_frame(static_cast<double>(L.alloc.bytes)), "B"},
      {"emu.step_us", mean_us(Op::kStep), "us"},
      {"emu.steps_per_frame", per_frame(static_cast<double>(op(Op::kStep).calls)), "count"},
      {"emu.digest_us", mean_us(Op::kDigest), "us"},
      {"emu.digests_per_frame", per_frame(static_cast<double>(op(Op::kDigest).calls)), "count"},
      {"emu.save_us", mean_us(Op::kSave), "us"},
      {"emu.saves_per_frame", per_frame(static_cast<double>(op(Op::kSave).calls)), "count"},
      {"emu.loads_per_frame", per_frame(static_cast<double>(op(Op::kLoad).calls)), "count"},
      {"emu.self_us_per_frame", per_frame(emu_ns) / 1e3, "us"},
      {"input.self_us_per_frame", per_frame(input_ns) / 1e3, "us"},
      {"session.self_us_per_frame", per_frame(L.window_ns.sum - emu_ns - net_ns - input_ns) / 1e3,
       "us"},
      {"sync.stall_ms_per_frame", L.stall_ms.value(), "ms"},
      {"sync.messages_per_frame", L.messages.value(), "count"},
      {"sync.retransmitted_per_frame", L.retransmitted.value(), "count"},
      {"rollback.rollbacks_per_frame", L.rollbacks.value(), "count"},
      {"rollback.resimulated_per_frame", L.resimulated.value(), "count"},
      {"rollback.mispredict_ratio", L.mispredicted.value(), "ratio"},
      {"rollback.max_depth", static_cast<double>(L.max_depth), "frames"},
      {"pacer.sleep_ms_per_frame", L.sleep_ms.value(), "ms"},
      {"pacer.overruns", L.overruns, "count"},
      {"pacer.frame_dev_ms", L.frame_dev_ms.value(), "ms"},
      {"pacer.sync_ms", L.sync_ms.value(), "ms"},
      {"pacer.late_ms_p99", L.late_ms.pct(99), "ms"},
      {"session.handshake_ms", L.handshake_ms.median(), "ms"},
      {"session.teardown_s", L.teardown_s.median(), "s"},
      {"spectate.delay_ms_p50", L.spectator_ms.pct(50), "ms"},
      {"spectate.delay_ms_p99", L.spectator_ms.pct(99), "ms"},
      {"spectate.bytes_per_frame", L.spectator_bytes.value(), "B"},
      {"spectate.snapshot_bytes", L.snapshot_bytes.value(), "B"},
      {"spectate.feed_bytes_per_frame", L.feed_bytes.value(), "B"},
      {"spectate.join_ms", L.join_ms.median(), "ms"},
      {"spectate.observer_cpu_ms_per_frame", L.observer_cpu_ms.value(), "ms"},
      {"relay.datagrams_per_frame", L.relay_datagrams.value(), "count"},
      {"relay.cpu_ms_per_frame", L.relay_cpu_ms.value(), "ms"},
      {"trace.frames_per_s", L.fps.value(), "1/s"},
      {"trace.cpu_ms_per_frame", L.cpu_ms.value(), "ms"},
      {"trace.overhead_frames_per_s", L.fps.value() - untraced_fps, "1/s"},
      {"trace.overhead_cpu_ms_per_frame", L.cpu_ms.value() - untraced_cpu_ms, "ms"},
  };
}

/// Sample counts behind each percentile, for the benchmark's notes.
void print_sample_counts(const Ledger& L, const char* label) {
  std::fprintf(stderr,
               "e2e: %s samples: setup %zu, frame times %zu, local edges %zu, remote edges %zu, "
               "spectator frames %zu, one-way %zu, lateness %zu\n",
               label, L.setup_s.n(), L.frame_ms.n(), L.local_ms.n(), L.remote_ms.n(),
               L.spectator_ms.n(), L.one_way_us.n(), L.late_ms.n());
  std::fprintf(stderr, "e2e: %s frame-time p99 per match (ms):", label);
  for (const double x : L.frame_ms_p99.xs) std::fprintf(stderr, " %.2f", x);
  std::fprintf(stderr, "\n");
  for (int s = 0; s < 2; ++s) {
    std::fprintf(stderr,
                 "e2e: %s edges from site %d: local p50/p90/p99 %.2f/%.2f/%.2f ms, "
                 "remote p50/p90/p99 %.2f/%.2f/%.2f ms\n",
                 label, s, L.local_from[s].pct(50), L.local_from[s].pct(90),
                 L.local_from[s].pct(99), L.remote_from[s].pct(50), L.remote_from[s].pct(90),
                 L.remote_from[s].pct(99));
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  FrameNo frames = 0;  ///< override frames per match (smoke runs)
  int matches = 0;     ///< override matches per run
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      o.trace = std::strtol(v, &end, 10) != 0;
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else if (k == "--frames") {
      o.frames = std::strtoll(v, &end, 10);
    } else if (k == "--matches") {
      o.matches = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

int run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (o.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "e2e: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::unique_ptr<relay::RelayServer> relay;
  if (w->relay) {
    relay::RelayConfig rc;
    rc.shards = 1;
    relay = std::make_unique<relay::RelayServer>(rc);
    std::string err;
    if (!relay->start(&err)) {
      std::fprintf(stderr, "e2e: relay start failed: %s\n", err.c_str());
      return 1;
    }
  }

  // Plan the run. Matches have a fixed size, so both sides of a comparison
  // do the same work. A paced match times match_frames frames after its
  // warm-up, and the match count fills the requested seconds at 60 fps. A
  // max-rate run plays seconds * kMaxrateNominalFps frames (about the
  // requested seconds at the baseline rate) in kMaxrateMatches matches,
  // after a warm-up match that is checked but not reported.
  FrameNo frames = o.frames;
  int matches = o.matches;
  Ledger checked;  // pooled correctness of every match
  int index = 0;
  if (w->paced) {
    if (matches == 0) {
      matches = std::max(2, static_cast<int>(std::lround(
                                o.seconds * 60.0 / static_cast<double>(w->match_frames))));
    }
    if (frames == 0) frames = w->match_frames + kWarmupFrames;
  } else {
    if (matches == 0) matches = kMaxrateMatches;
    if (frames == 0) frames = static_cast<FrameNo>(o.seconds * kMaxrateNominalFps / matches);
    play({*w, o.seed, index++, std::min(frames, kMaxrateWarmupFrames), false, relay.get(),
          nullptr},
         checked);
  }
  // Matches pool their samples into one ledger per kind.
  const int untraced_matches = o.trace ? std::max(1, matches / 2) : matches;
  Ledger untraced;
  Ledger traced;
  for (int i = 0; i < matches; ++i) {
    // The probes are spread over the run, so a burst of host load moves few.
    for (int p = i * kSetupProbes / matches; p < (i + 1) * kSetupProbes / matches; ++p) {
      play({*w, o.seed, index++, kProbeFrames, false, relay.get(), nullptr, true}, untraced);
    }
    const bool t = i >= untraced_matches;
    const std::string* out = t && i == untraced_matches && !o.trace_out.empty() ? &o.trace_out
                                                                                 : nullptr;
    play({*w, o.seed, index++, frames, t, relay.get(), out}, t ? traced : untraced);
  }
  if (relay) relay->stop();

  print_sample_counts(untraced, "untraced");
  checked.attempted += untraced.attempted;
  checked.failed += untraced.failed;
  std::vector<Metric> e2e = end_to_end(untraced);
  if (!o.trace) {
    e2e.push_back({"success_frac",
                   1.0 - static_cast<double>(checked.failed) /
                             static_cast<double>(std::max<std::uint64_t>(checked.attempted, 1)),
                   "ratio"});
    print_result(checked, e2e);
  } else {
    print_sample_counts(traced, "traced");
    checked.attempted += traced.attempted;
    checked.failed += traced.failed;
    print_result(checked, per_layer(traced, value_of(e2e, "frames_per_s"),
                                    value_of(e2e, "cpu_ms_per_frame")));
  }
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options o;
  if (!e2e::parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: e2e_netplay --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--frames N] [--matches M]\n");
    return 2;
  }
  return e2e::run(o);
}
