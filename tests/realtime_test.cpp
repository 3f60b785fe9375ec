// Integration tests for the wall-clock driver over real loopback UDP —
// two complete sites in one process, two threads. Kept short (a few
// seconds of 60 FPS play) since these consume real time.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/telemetry.h"
#include "src/core/input_source.h"
#include "src/core/realtime.h"
#include "src/core/spectate.h"
#include "src/core/wire.h"
#include "src/games/roms.h"
#include "src/net/udp_socket.h"
#include "src/net/udp_syscalls.h"

namespace rtct::core {
namespace {

struct Pair {
  net::UdpSocket s0{"127.0.0.1", 0};
  net::UdpSocket s1{"127.0.0.1", 0};
  Pair() {
    EXPECT_TRUE(s0.valid());
    EXPECT_TRUE(s1.valid());
    EXPECT_TRUE(s0.connect_peer("127.0.0.1", s1.local_port()));
    EXPECT_TRUE(s1.connect_peer("127.0.0.1", s0.local_port()));
  }
};

TEST(RealtimeTest, TwoSitesOverLoopbackStayConsistent) {
  auto m0 = games::make_machine("torture");  // maximal divergence sensitivity
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(5), p1(6);

  RealtimeConfig cfg;
  cfg.frames = 120;  // two seconds
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.timeline().size(), 120u);
  EXPECT_EQ(b.timeline().size(), 120u);
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
  // Wall-clock pacing: roughly 60 FPS (very generous bounds; CI machines
  // have noisy schedulers).
  const double avg_ft = a.timeline().frame_times().summarize().mean;
  EXPECT_GT(avg_ft, 12.0);
  EXPECT_LT(avg_ft, 25.0);
}

// Regression: the master's START answer used to be queued by drain()'s
// session ingest but never polled once the handshake loop had exited, so
// a slave that must wait for the START (rollback, adaptive lag) HELLOed
// forever while the master played against silence — both sides timed
// out. The frame loop's drain() now answers session traffic itself.
TEST(RealtimeTest, RollbackModeNegotiatesOverLoopback) {
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(7), p1(8);

  RealtimeConfig cfg;
  cfg.frames = 120;
  cfg.sync.rollback = true;
  cfg.sync.rollback_input_delay = 1;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(a.rollback_mode());
  EXPECT_TRUE(b.rollback_mode());
  EXPECT_EQ(a.timeline().size(), 120u);
  EXPECT_EQ(b.timeline().size(), 120u);
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  EXPECT_EQ(m0->state_hash(), m1->state_hash());
}

// Counts the transport calls a session makes between its first and last
// frame hooks.
class CountingTransport final : public net::PollableTransport {
 public:
  explicit CountingTransport(net::PollableTransport& inner) : inner_(inner) {}
  void send(std::span<const std::uint8_t> payload) override { inner_.send(payload); }
  std::optional<net::Payload> try_recv() override {
    ++calls_;
    return inner_.try_recv();
  }
  bool wait_readable(Dur timeout) override {
    ++calls_;
    return inner_.wait_readable(timeout);
  }
  [[nodiscard]] bool valid() const override { return inner_.valid(); }
  [[nodiscard]] const std::string& last_error() const override { return inner_.last_error(); }
  void export_metrics(MetricsRegistry& reg) const override { inner_.export_metrics(reg); }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  net::PollableTransport& inner_;
  std::uint64_t calls_ = 0;
};

// Regression: the pacing wait used to spin through the last ~2 ms of every
// frame on empty try_recv + poll(0) pairs, ~2,200 calls per paced frame. A
// deadline wait wakes only for the frame end, a flush, or a datagram — a
// handful of calls per frame.
void expect_no_spin(bool rollback) {
  constexpr int kFrames = 150;
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  CountingTransport c0(sockets.s0), c1(sockets.s1);
  MasherInput p0(11), p1(12);

  RealtimeConfig cfg;
  cfg.frames = kFrames;
  cfg.sync.rollback = rollback;
  RealtimeSession a(0, *m0, p0, c0, cfg);
  RealtimeSession b(1, *m1, p1, c1, cfg);
  // Calls made during frames 0 .. kFrames-1 (hooks at both ends).
  std::uint64_t window[2][2] = {};
  const auto hook_for = [&](int site, const CountingTransport& c) {
    return [&, site](const emu::IDeterministicGame&, const FrameRecord& rec) {
      if (rec.frame == 0) window[site][0] = c.calls();
      if (rec.frame == kFrames - 1) window[site][1] = c.calls();
    };
  };
  a.set_frame_hook(hook_for(0, c0));
  b.set_frame_hook(hook_for(1, c1));

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.rollback_mode(), rollback);
  ASSERT_EQ(a.timeline().size(), static_cast<std::size_t>(kFrames));
  ASSERT_EQ(b.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
  for (int site = 0; site < 2; ++site) {
    const double per_frame =
        static_cast<double>(window[site][1] - window[site][0]) / (kFrames - 1);
    EXPECT_LE(per_frame, 20.0) << "site " << site << " spins on its transport";
  }
  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_GT(reg.value("session.waits").value_or(0), 0);
}

TEST(RealtimeTest, LockstepPacingBlocksInsteadOfSpinning) { expect_no_spin(false); }

TEST(RealtimeTest, RollbackPacingBlocksInsteadOfSpinning) { expect_no_spin(true); }

// Regression: the pacer subtracted its own buf_frames (6) from the master's
// last received frame, while rollback inputs carry the input delay (2), so
// the rollback slave began every frame ~4 frames (~67 ms) after the master.
// With the lag taken from the engine, the two sites' frame starts sit
// within a frame period of each other (median over the paced frames, so a
// noisy scheduler's outliers do not decide it).
TEST(RealtimeTest, RollbackSlaveFrameStartsTrackTheMaster) {
  constexpr int kFrames = 180;
  constexpr int kWarmup = 60;  // rate sync converges from the start skew
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(21), p1(22);

  RealtimeConfig cfg;
  cfg.frames = kFrames;
  cfg.sync.rollback = true;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  ASSERT_TRUE(a.rollback_mode());
  // Both sessions' clocks start at construction, microseconds apart.
  const auto diffs = synchrony_differences(a.timeline(), b.timeline()).samples();
  ASSERT_EQ(diffs.size(), static_cast<std::size_t>(kFrames));
  std::vector<double> offsets;
  for (std::size_t f = kWarmup; f < diffs.size(); ++f) offsets.push_back(std::abs(diffs[f]));
  EXPECT_LT(percentile(offsets, 50), 1000.0 / 60.0)
      << "the slave trails the master by more than a frame";
}

// Drops the next `g_drops_left` datagrams sent on socket `g_drop_fd`
// (pretending they were sent): the final inputs of a match lost on the
// wire. Only the thread running that socket's session sends on it.
std::atomic<int> g_drop_fd{-1};
std::atomic<int> g_drops_left{0};
ssize_t dropping_send(int fd, const void* buf, size_t len, int flags) {
  if (fd == g_drop_fd.load() && g_drops_left.load() > 0) {
    g_drops_left.fetch_sub(1);
    return static_cast<ssize_t>(len);
  }
  return ::send(fd, buf, len, flags);
}
const net::UdpSyscalls kDroppingSyscalls{dropping_send, ::sendto, ::recv, ::recvfrom, ::ppoll};

// Regression: a lockstep site returned right after its last frame. When the
// datagrams carrying its final inputs were lost, nobody resent them and the
// peer hit its stall timeout. The lame duck keeps resending until the peer
// has acked them.
TEST(RealtimeTest, LockstepLameDuckResendsLostFinalInputs) {
  constexpr int kFrames = 60;
  constexpr int kDrops = 25;  // ~0.5 s of flushes: more than the loop sends
  auto m0 = games::make_machine("torture");
  auto m1 = games::make_machine("torture");
  Pair sockets;
  MasherInput p0(31), p1(32);

  RealtimeConfig cfg;
  cfg.frames = kFrames;
  cfg.stall_timeout = seconds(2);
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  // Site 0's input for the last frame is buffered at frame
  // kFrames-1-buf_frames; lose everything it sends from just before then.
  a.set_frame_hook([&](const emu::IDeterministicGame&, const FrameRecord& rec) {
    if (rec.frame == kFrames - 2 - cfg.sync.buf_frames) g_drops_left.store(kDrops);
  });
  g_drop_fd.store(sockets.s0.native_fd());
  net::set_udp_syscalls_for_test(&kDroppingSyscalls);

  std::string e0, e1;
  bool ok1 = false;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();
  net::set_udp_syscalls_for_test(nullptr);
  g_drop_fd.store(-1);

  EXPECT_EQ(g_drops_left.load(), 0) << "site 0 stopped sending before the drops ran out";
  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(a.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(b.timeline().size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(first_divergence(a.timeline(), b.timeline()), -1);
}

TEST(RealtimeTest, MismatchedRomsRefuseToPair) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("duel");
  Pair sockets;
  IdleInput idle;

  RealtimeConfig cfg;
  cfg.frames = 30;
  cfg.handshake_timeout = seconds(2);
  RealtimeSession a(0, *m0, idle, sockets.s0, cfg);
  RealtimeSession b(1, *m1, idle, sockets.s1, cfg);

  std::string e0, e1;
  bool ok1 = true;
  std::thread t([&] { ok1 = b.run(&e1); });
  const bool ok0 = a.run(&e0);
  t.join();

  EXPECT_FALSE(ok0);
  EXPECT_NE(e0.find("image"), std::string::npos) << e0;
  EXPECT_FALSE(ok1);  // slave times out or fails symmetric check
}

TEST(RealtimeTest, MissingPeerTimesOut) {
  auto m = games::make_machine("pong");
  net::UdpSocket sock("127.0.0.1", 0);
  ASSERT_TRUE(sock.connect_peer("127.0.0.1", 1));  // nobody listens on port 1
  IdleInput idle;
  RealtimeConfig cfg;
  cfg.handshake_timeout = milliseconds(300);
  RealtimeSession s(0, *m, idle, sock, cfg);
  std::string err;
  EXPECT_FALSE(s.run(&err));
  EXPECT_NE(err.find("timeout"), std::string::npos) << err;
}

TEST(RealtimeTest, PeerDeathStallsThenFails) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  Pair sockets;
  IdleInput idle0;
  MasherInput p1(9);

  RealtimeConfig short_cfg;
  short_cfg.frames = 20;  // peer plays only 20 frames then leaves
  RealtimeConfig long_cfg;
  long_cfg.frames = 600;
  long_cfg.stall_timeout = milliseconds(700);

  RealtimeSession quitter(1, *m1, p1, sockets.s1, short_cfg);
  RealtimeSession stayer(0, *m0, idle0, sockets.s0, long_cfg);

  std::string e0, e1;
  std::thread t([&] { quitter.run(&e1); });
  const bool ok0 = stayer.run(&e0);
  t.join();

  EXPECT_FALSE(ok0);
  EXPECT_NE(e0.find("stall"), std::string::npos) << e0;
  // The paper's semantics: freeze, never desync — whatever frames both
  // executed are identical.
  EXPECT_EQ(first_divergence(stayer.timeline(), quitter.timeline()), -1);
}

TEST(RealtimeTest, UdpSpectatorReplaysLive) {
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(1), p1(2);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 180;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  SpectatorClient client(*replica, SyncConfig{});
  const auto start = std::chrono::steady_clock::now();
  Time fake_now = 0;
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) client.ingest(*msg);
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(client.joined());
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
  EXPECT_EQ(a.spectators_joined(), 1u);
}

TEST(RealtimeTest, SpectatorJoiningDuringHandshakeNeverGetsPreGameSnapshot) {
  // Regression: a JoinRequest read while the host is still at frame 0 (the
  // handshake pumps the spectator socket) used to be answered immediately
  // with a snapshot labeled frame -1 — a state captured before the first
  // Transition, from a frame the host never executed or recorded. The host
  // must defer the snapshot until frame 0 has run; every snapshot frame on
  // the wire must be >= 0 and the late-joiner must still converge.
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(3), p1(4);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 120;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  SpectatorClient client(*replica, SyncConfig{});
  // Queue the JoinRequest before either site starts: the host reads it
  // from the socket during its handshake loop, while game_.frame() == 0.
  Time fake_now = 0;
  if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  std::vector<FrameNo> snapshot_frames;
  const auto start = std::chrono::steady_clock::now();
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) {
        if (const auto* snap = std::get_if<SnapshotMsg>(&*msg)) {
          snapshot_frames.push_back(snap->frame);
        }
        client.ingest(*msg);
      }
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_TRUE(client.joined());
  ASSERT_FALSE(snapshot_frames.empty());
  for (const FrameNo f : snapshot_frames) EXPECT_GE(f, 0) << "pre-game snapshot served";
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
}

TEST(RealtimeTest, RequestStopInterruptsHandshake) {
  auto m = games::make_machine("pong");
  net::UdpSocket sock("127.0.0.1", 0);
  ASSERT_TRUE(sock.connect_peer("127.0.0.1", 1));
  IdleInput idle;
  RealtimeConfig cfg;
  cfg.handshake_timeout = seconds(30);
  RealtimeSession s(0, *m, idle, sock, cfg);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    s.request_stop();
  });
  std::string err;
  EXPECT_FALSE(s.run(&err));
  stopper.join();
  EXPECT_NE(err.find("stopped"), std::string::npos);
}

TEST(RealtimeTest, RogueSenderOnSpectatorPortMintsNoObserver) {
  // Regression: the spectator pump used to register ANY address whose first
  // datagram merely decoded as some protocol message — a rogue HELLO (or a
  // relay's EvictNotice re-send, or a reaped observer's stale FeedAck)
  // minted a phantom observer whose never-advancing cursor pinned the
  // hub's trim watermark. Now only a JoinRequest creates observer state;
  // everything else is counted in session.dropped_unknown_sender.
  auto m0 = games::make_machine("pong");
  auto m1 = games::make_machine("pong");
  auto replica = games::make_machine("pong");
  Pair sockets;
  MasherInput p0(5), p1(6);

  net::UdpSocket spectator_port("127.0.0.1", 0);
  ASSERT_TRUE(spectator_port.valid());
  net::UdpSocket watcher("127.0.0.1", 0);
  ASSERT_TRUE(watcher.connect_peer("127.0.0.1", spectator_port.local_port()));
  net::UdpSocket rogue("127.0.0.1", 0);
  ASSERT_TRUE(rogue.connect_peer("127.0.0.1", spectator_port.local_port()));

  RealtimeConfig cfg;
  cfg.frames = 120;
  RealtimeSession a(0, *m0, p0, sockets.s0, cfg);
  RealtimeSession b(1, *m1, p1, sockets.s1, cfg);
  a.serve_spectators(&spectator_port);

  std::string e0, e1;
  bool ok0 = false, ok1 = false;
  std::thread t0([&] { ok0 = a.run(&e0); });
  std::thread t1([&] { ok1 = b.run(&e1); });

  // The rogue pokes the spectator port with decodable non-join messages
  // while a legitimate watcher joins and follows the feed.
  HelloMsg hello;
  hello.site = 1;
  hello.rom_checksum = m0->content_id();
  const auto hello_bytes = encode_message(Message{hello});
  const auto ack_bytes = encode_message(Message{FeedAckMsg{}});

  SpectatorClient client(*replica, SyncConfig{});
  const auto start = std::chrono::steady_clock::now();
  Time fake_now = 0;
  while (client.applied_frame() < cfg.frames - 1 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(15)) {
    rogue.send(hello_bytes);
    rogue.send(ack_bytes);
    if (auto m = client.make_message(fake_now)) watcher.send(encode_message(*m));
    watcher.wait_readable(milliseconds(10));
    while (auto payload = watcher.try_recv()) {
      if (auto msg = decode_message(*payload)) client.ingest(*msg);
    }
    client.step_available();
    fake_now += milliseconds(10);
  }
  t0.join();
  t1.join();

  ASSERT_TRUE(ok0) << e0;
  ASSERT_TRUE(ok1) << e1;
  EXPECT_EQ(client.applied_frame(), cfg.frames - 1);
  EXPECT_EQ(replica->state_hash(), m0->state_hash());
  // Only the real watcher became an observer; the rogue was counted.
  EXPECT_EQ(a.spectators_joined(), 1u);
  EXPECT_GT(a.dropped_unknown_sender(), 0u);
  MetricsRegistry reg;
  a.export_metrics(reg);
  EXPECT_EQ(reg.value("session.dropped_unknown_sender"),
            static_cast<double>(a.dropped_unknown_sender()));
}

}  // namespace
}  // namespace rtct::core
