// Relay soak: 64 concurrent relayed two-site lockstep sessions in one
// process, each driven by the sans-IO SyncPeer over real RelayEndpoint
// sockets, with chaos FaultScript loss windows suppressing send flushes
// client-side. Per-session digest chains over the popped merged inputs
// must agree between the two members — logical consistency end-to-end
// through the multiplexed relay, under deterministic adversity.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/chaos/fault_script.h"
#include "src/common/random.h"
#include "src/core/sync_peer.h"
#include "src/core/wire.h"
#include "src/relay/relay_client.h"
#include "src/relay/relay_server.h"

namespace rtct::relay {
namespace {

using core::SyncPeer;

Time elapsed_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr int kSessions = 64;
constexpr int kFrames = 40;

struct Site {
  std::unique_ptr<RelayEndpoint> ep;
  std::unique_ptr<SyncPeer> peer;
  FrameNo submitted = 0;
  FrameNo popped = 0;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
};

struct Soaked {
  Site site[2];
  chaos::FaultScript script;
  Rng rng{0};
};

// kLossBurst magnitude is a drop *probability* (fault_script.h), so each
// send inside a window is dropped by a per-session Bernoulli draw — never
// suppressed unconditionally, which would livelock a site whose virtual
// time froze inside a window while it waits on peer input.
bool drop_this_send(const chaos::FaultScript& script, Dur vt, Rng& rng) {
  for (const auto& f : script.faults) {
    if (f.kind != chaos::FaultKind::kLossBurst) continue;
    if (vt >= f.at && vt < f.at + f.duration) return rng.bernoulli(f.magnitude);
  }
  return false;
}

TEST(RelaySoakTest, SixtyFourConcurrentSessionsStayConsistent) {
  RelayConfig cfg;
  cfg.shards = 4;
  RelayServer server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  core::SyncConfig sync;
  sync.buf_frames = 4;

  // Establish all 64 sessions (128 lobby handshakes, 128 endpoints).
  std::vector<Soaked> sessions(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    RelayLobby creator("127.0.0.1", server.lobby_port());
    RelayLobby joiner("127.0.0.1", server.lobby_port());
    const auto created = creator.create(static_cast<std::uint64_t>(i));
    ASSERT_TRUE(created.has_value()) << "create " << i << ": " << creator.last_error();
    const auto joined = joiner.join(created->conn);
    ASSERT_TRUE(joined.has_value()) << "join " << i << ": " << joiner.last_error();
    sessions[i].site[0].ep = creator.into_endpoint(*created);
    sessions[i].site[1].ep = joiner.into_endpoint(*joined);
    sessions[i].site[0].peer = std::make_unique<SyncPeer>(0, sync);
    sessions[i].site[1].peer = std::make_unique<SyncPeer>(1, sync);
    sessions[i].script =
        chaos::generate_fault_script(0x50AC0000ull + static_cast<std::uint64_t>(i),
                                     chaos::Topology::kTwoSite);
    sessions[i].rng = Rng(sessions[i].script.seed ^ 0xd10ffull);
  }
  ASSERT_EQ(server.session_count(), static_cast<std::size_t>(kSessions));

  const auto t0 = std::chrono::steady_clock::now();
  const Time deadline = seconds(60);
  std::vector<std::uint8_t> scratch;

  auto all_done = [&] {
    for (const auto& s : sessions) {
      if (s.site[0].popped < kFrames || s.site[1].popped < kFrames) return false;
    }
    return true;
  };

  while (!all_done()) {
    ASSERT_LT(elapsed_since(t0), deadline) << "soak did not converge";
    const Time now = elapsed_since(t0);
    for (auto& s : sessions) {
      for (int sid = 0; sid < 2; ++sid) {
        Site& site = s.site[sid];
        SyncPeer& peer = *site.peer;
        // Keep the input pipeline one frame ahead of delivery. (BufFrame
        // pre-seeds the first frames, so popped starts ahead of submitted;
        // `<=` lets submission catch up instead of deadlocking.)
        if (site.submitted < kFrames && site.submitted <= site.popped) {
          // Deterministic per-site input pattern (what a player "pressed").
          const auto pressed = static_cast<std::uint8_t>(
              (site.submitted * 7 + sid * 13 + s.script.seed) & 0xFF);
          const InputWord local =
              sid == 0 ? make_input(pressed, 0) : make_input(0, pressed);
          peer.submit_local(site.submitted, local, now);
          ++site.submitted;
        }
        // Chaos: inside a loss-burst window this site's flushes are
        // probabilistically dropped — the peer's go-back-N retransmission
        // must carry the session across.
        const Dur vt = site.popped * frame_period(60);
        if (!drop_this_send(s.script, vt, s.rng)) {
          if (auto msg = peer.make_message(now)) {
            core::encode_message_into(core::Message{*msg}, scratch);
            site.ep->send(scratch);
          }
        }
        while (auto payload = site.ep->try_recv()) {
          const auto msg = core::decode_message(*payload);
          if (!msg) continue;
          if (const auto* sm = std::get_if<core::SyncMsg>(&*msg)) {
            peer.ingest(*sm, now);
          }
        }
        while (peer.ready() && site.popped < kFrames) {
          const InputWord merged = peer.pop();
          // FNV-1a chain over (frame, merged): order- and value-sensitive.
          site.digest ^= (static_cast<std::uint64_t>(site.popped) << 16) |
                         static_cast<std::uint64_t>(merged);
          site.digest *= 1099511628211ull;
          ++site.popped;
        }
      }
    }
    // One core hosts the relay threads AND this driver: yield so the
    // shards can forward what we just offered.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Per-frame digest agreement: identical chains on both members of every
  // session, and distinct inputs across sessions actually flowed (chains
  // differ between sessions because the seed feeds the input pattern).
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sessions[i].site[0].digest, sessions[i].site[1].digest)
        << "session " << i << " diverged";
    EXPECT_EQ(sessions[i].site[0].popped, kFrames);
    EXPECT_EQ(sessions[i].site[1].popped, kFrames);
  }
  EXPECT_NE(sessions[0].site[0].digest, sessions[1].site[0].digest);

  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_created, static_cast<std::uint64_t>(kSessions));
  EXPECT_GT(stats.datagrams_forwarded, static_cast<std::uint64_t>(kSessions * kFrames));
  EXPECT_EQ(stats.dropped_unknown_sender, 0u);
  EXPECT_EQ(stats.dropped_malformed, 0u);
  server.stop();
}

}  // namespace
}  // namespace rtct::relay
