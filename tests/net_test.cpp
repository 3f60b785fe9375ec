// Unit tests for the network substrate: Netem model, simulated links,
// and the real UDP socket wrapper (loopback).
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "src/net/netem.h"
#include "src/net/sim_network.h"
#include "src/net/udp_socket.h"
#include "src/sim/simulator.h"

namespace rtct::net {
namespace {

// ---- NetemModel -------------------------------------------------------------

TEST(NetemModelTest, PerfectLinkDeliversAtExactDelay) {
  NetemConfig cfg;
  cfg.delay = milliseconds(30);
  NetemModel model(cfg, Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto v = model.offer(milliseconds(i), 100);
    ASSERT_TRUE(v.delivered);
    EXPECT_EQ(v.arrival, milliseconds(i) + milliseconds(30));
    EXPECT_FALSE(v.duplicate);
    model.on_arrival();
  }
  EXPECT_EQ(model.stats().packets_delivered, 100u);
  EXPECT_EQ(model.stats().dropped_loss, 0u);
}

TEST(NetemModelTest, LossRateApproximatesConfig) {
  NetemConfig cfg;
  cfg.loss = 0.25;
  NetemModel model(cfg, Rng(2));
  int dropped = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!model.offer(0, 64).delivered) ++dropped;
  }
  EXPECT_NEAR(dropped / 10000.0, 0.25, 0.02);
  EXPECT_EQ(model.stats().dropped_loss, static_cast<std::uint64_t>(dropped));
}

TEST(NetemModelTest, DuplicationProducesSecondCopy) {
  NetemConfig cfg;
  cfg.duplicate = 0.5;
  NetemModel model(cfg, Rng(3));
  int dups = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto v = model.offer(0, 64);
    ASSERT_TRUE(v.delivered);
    dups += v.duplicate;
  }
  EXPECT_NEAR(dups / 4000.0, 0.5, 0.04);
}

TEST(NetemModelTest, JitterSpreadsArrivalsButNeverNegative) {
  NetemConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.jitter = milliseconds(8);
  NetemModel model(cfg, Rng(4));
  bool saw_early = false, saw_late = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = model.offer(milliseconds(100), 64);
    ASSERT_TRUE(v.delivered);
    ASSERT_GE(v.arrival, milliseconds(100));  // time travel forbidden
    saw_early = saw_early || v.arrival < milliseconds(100) + milliseconds(8);
    saw_late = saw_late || v.arrival > milliseconds(100) + milliseconds(12);
  }
  EXPECT_TRUE(saw_early);
  EXPECT_TRUE(saw_late);
}

TEST(NetemModelTest, ReorderHoldsPacketsBack) {
  NetemConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.reorder = 1.0;  // every packet
  cfg.reorder_extra = milliseconds(7);
  NetemModel model(cfg, Rng(5));
  const auto v = model.offer(0, 64);
  EXPECT_EQ(v.arrival, milliseconds(17));
  EXPECT_EQ(model.stats().reordered, 1u);
}

TEST(NetemModelTest, RateLimitSerializesBackToBack) {
  NetemConfig cfg;
  cfg.rate_bps = 8000;  // 1 byte per millisecond
  NetemModel model(cfg, Rng(6));
  const auto first = model.offer(0, 10);   // finishes serializing at 10ms
  const auto second = model.offer(0, 10);  // queued behind: 20ms
  EXPECT_EQ(first.arrival, milliseconds(10));
  EXPECT_EQ(second.arrival, milliseconds(20));
  // After the link drains, a later packet is not penalized.
  const auto third = model.offer(milliseconds(100), 10);
  EXPECT_EQ(third.arrival, milliseconds(110));
}

TEST(NetemModelTest, QueueLimitTailDrops) {
  NetemConfig cfg;
  cfg.delay = milliseconds(50);
  cfg.queue_limit = 3;
  NetemModel model(cfg, Rng(7));
  int delivered = 0;
  for (int i = 0; i < 5; ++i) delivered += model.offer(0, 64).delivered;
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(model.stats().dropped_queue, 2u);
  // Draining in-flight packets frees queue slots.
  for (int i = 0; i < 3; ++i) model.on_arrival();
  EXPECT_TRUE(model.offer(milliseconds(60), 64).delivered);
}

TEST(NetemModelTest, ForRttSplitsDelayPerDirection) {
  const auto cfg = NetemConfig::for_rtt(milliseconds(140));
  EXPECT_EQ(cfg.delay, milliseconds(70));
  EXPECT_EQ(cfg.loss, 0.0);
}

TEST(NetemModelTest, DeterministicForSeed) {
  NetemConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.jitter = milliseconds(5);
  cfg.loss = 0.1;
  NetemModel a(cfg, Rng(42)), b(cfg, Rng(42));
  for (int i = 0; i < 500; ++i) {
    const auto va = a.offer(i * 1000, 64);
    const auto vb = b.offer(i * 1000, 64);
    ASSERT_EQ(va.delivered, vb.delivered);
    ASSERT_EQ(va.arrival, vb.arrival);
  }
}

// ---- SimDuplexLink ----------------------------------------------------------

TEST(SimLinkTest, DatagramCrossesWithConfiguredDelay) {
  sim::Simulator sim;
  SimDuplexLink link(sim, NetemConfig::for_rtt(milliseconds(100)));
  const std::uint8_t payload[] = {1, 2, 3};
  link.a().send(payload);
  EXPECT_FALSE(link.b().try_recv().has_value());  // not yet
  sim.run();
  EXPECT_EQ(sim.now(), milliseconds(50));
  const auto got = link.b().try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 3u);
  EXPECT_EQ((*got)[2], 3);
}

TEST(SimLinkTest, DirectionsAreIndependent) {
  sim::Simulator sim;
  NetemConfig fast;
  fast.delay = milliseconds(5);
  NetemConfig slow;
  slow.delay = milliseconds(80);
  SimDuplexLink link(sim, fast, slow);
  const std::uint8_t x[] = {9};
  link.a().send(x);  // a->b: fast
  link.b().send(x);  // b->a: slow
  sim.run_until(milliseconds(10));
  EXPECT_TRUE(link.b().try_recv().has_value());
  EXPECT_FALSE(link.a().try_recv().has_value());
  sim.run();
  EXPECT_TRUE(link.a().try_recv().has_value());
}

TEST(SimLinkTest, ArrivalTriggerFires) {
  sim::Simulator sim;
  SimDuplexLink link(sim, NetemConfig::for_rtt(milliseconds(20)));
  bool woken = false;
  struct Fn {
    static sim::Task run(SimEndpoint& ep, bool& flag) {
      co_await ep.arrival_trigger().wait();
      flag = ep.try_recv().has_value();
    }
  };
  sim.spawn(Fn::run(link.b(), woken));
  const std::uint8_t payload[] = {7};
  link.a().send(payload);
  sim.run();
  EXPECT_TRUE(woken);
}

TEST(SimLinkTest, FifoOrderWithoutReordering) {
  sim::Simulator sim;
  SimDuplexLink link(sim, NetemConfig::for_rtt(milliseconds(30)));
  for (std::uint8_t i = 0; i < 10; ++i) {
    const std::uint8_t payload[] = {i};
    link.a().send(payload);
  }
  sim.run();
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto got = link.b().try_recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], i);
  }
}

TEST(SimLinkTest, TxStatsCount) {
  sim::Simulator sim;
  NetemConfig lossy;
  lossy.loss = 1.0;
  SimDuplexLink link(sim, lossy, NetemConfig{});
  const std::uint8_t payload[] = {1, 2};
  link.a().send(payload);
  link.a().send(payload);
  sim.run();
  EXPECT_EQ(link.a().tx_stats().packets_offered, 2u);
  EXPECT_EQ(link.a().tx_stats().dropped_loss, 2u);
  EXPECT_FALSE(link.b().try_recv().has_value());
}

// ---- UdpSocket (loopback) ----------------------------------------------------

TEST(UdpSocketTest, LoopbackRoundTrip) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.valid()) << a.last_error();
  ASSERT_TRUE(b.valid()) << b.last_error();
  ASSERT_NE(a.local_port(), 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  ASSERT_TRUE(b.connect_peer("127.0.0.1", a.local_port()));

  const std::uint8_t payload[] = {0xDE, 0xAD, 0xBE, 0xEF};
  a.send(payload);
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto got = b.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 4u);
  EXPECT_EQ((*got)[0], 0xDE);
  EXPECT_EQ(a.datagrams_sent(), 1u);
  EXPECT_EQ(b.datagrams_received(), 1u);
}

TEST(UdpSocketTest, TryRecvOnEmptySocketReturnsNothing) {
  UdpSocket s("127.0.0.1", 0);
  ASSERT_TRUE(s.valid());
  EXPECT_FALSE(s.try_recv().has_value());
  EXPECT_FALSE(s.wait_readable(milliseconds(1)));
}

// Waits block for what they ask, at sub-millisecond precision (a
// millisecond-truncating poll() turned 800 us into a non-blocking check).
// Lower bounds only: an oversubscribed host may wake late, never early.
TEST(UdpSocketTest, WaitReadableHonoursSubMillisecondTimeouts) {
  UdpSocket s("127.0.0.1", 0);
  ASSERT_TRUE(s.valid());
  const auto blocked = [&](Dur timeout) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(s.wait_readable(timeout));
    return std::chrono::steady_clock::now() - start;
  };
  EXPECT_GE(blocked(microseconds(800)), std::chrono::microseconds(700));
  EXPECT_GE(blocked(microseconds(1500)), std::chrono::microseconds(1400));
}

TEST(UdpSocketTest, NegativeWaitReturnsAtOnce) {
  UdpSocket s("127.0.0.1", 0);
  ASSERT_TRUE(s.valid());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(s.wait_readable(-seconds(1)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(500));
}

// A send to a dead port bounces an ICMP refusal onto a connected socket.
// The wait must report it (a receive clears it) rather than return false
// at once forever, which would turn every deadline wait into a spin.
TEST(UdpSocketTest, PendingSocketErrorWakesTheWaitAndReceiveClearsIt) {
  std::uint16_t dead_port = 0;
  {
    UdpSocket gone("127.0.0.1", 0);
    dead_port = gone.local_port();
  }
  UdpSocket a("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", dead_port));
  a.send(std::vector<std::uint8_t>{1});
  ASSERT_TRUE(a.wait_readable(seconds(1)));
  EXPECT_FALSE(a.try_recv().has_value());  // ECONNREFUSED, consumed softly
  EXPECT_EQ(a.recv_errors(), 0u);
  EXPECT_FALSE(a.wait_readable(milliseconds(20)));
}

// A delivered payload is sized to its datagram: receives go through one
// reused buffer instead of handing out (and zeroing) 64 KiB per call.
TEST(UdpSocketTest, ReceivedPayloadIsSizedToTheDatagram) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  const std::vector<std::uint8_t> payload(100, 0x5A);
  a.send(payload);
  a.send(payload);
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto got = b.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_LT(got->capacity(), 1024u);
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto from = b.recv_from();
  ASSERT_TRUE(from.has_value());
  EXPECT_EQ(from->first, payload);
  EXPECT_LT(from->first.capacity(), 1024u);
}

TEST(UdpSocketTest, LargestDatagramRoundTripsIntact) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  std::vector<std::uint8_t> payload(65507);  // the IPv4 UDP maximum
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  }
  a.send(payload);
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto got = b.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(a.send_errors(), 0u);
}

TEST(UdpSocketTest, InvalidBindAddressFails) {
  UdpSocket s("not an ip", 0);
  EXPECT_FALSE(s.valid());
  EXPECT_FALSE(s.last_error().empty());
}

TEST(UdpSocketTest, UnconnectedSendToRecvFrom) {
  UdpSocket server("127.0.0.1", 0);
  UdpSocket client_a("127.0.0.1", 0);
  UdpSocket client_b("127.0.0.1", 0);
  ASSERT_TRUE(client_a.connect_peer("127.0.0.1", server.local_port()));
  ASSERT_TRUE(client_b.connect_peer("127.0.0.1", server.local_port()));

  const std::uint8_t ping_a[] = {0xA};
  const std::uint8_t ping_b[] = {0xB};
  client_a.send(ping_a);
  client_b.send(ping_b);

  // Server sees both datagrams with distinct sender addresses and can
  // reply to each individually.
  UdpAddress addr_a{}, addr_b{};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(server.wait_readable(seconds(1)));
    auto got = server.recv_from();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->first.size(), 1u);
    if (got->first[0] == 0xA) addr_a = got->second;
    if (got->first[0] == 0xB) addr_b = got->second;
  }
  ASSERT_NE(addr_a, addr_b);
  EXPECT_FALSE(addr_a.to_string().empty());
  EXPECT_NE(addr_a.to_string().find("127.0.0.1:"), std::string::npos);

  const std::uint8_t reply[] = {0xCC};
  server.send_to(addr_a, reply);
  ASSERT_TRUE(client_a.wait_readable(seconds(1)));
  EXPECT_TRUE(client_a.try_recv().has_value());
  EXPECT_FALSE(client_b.wait_readable(milliseconds(50)));  // b got nothing
}

TEST(NetemModelTest, SetConfigSwapsConditionsMidRun) {
  NetemConfig fast;
  fast.delay = milliseconds(5);
  NetemModel model(fast, Rng(1));
  EXPECT_EQ(model.offer(0, 64).arrival, milliseconds(5));
  NetemConfig slow;
  slow.delay = milliseconds(90);
  model.set_config(slow);
  EXPECT_EQ(model.offer(0, 64).arrival, milliseconds(90));
  EXPECT_EQ(model.stats().packets_offered, 2u);  // stats carry over
}

TEST(UdpSocketTest, EmptyDatagramIsDeliverable) {
  UdpSocket a("127.0.0.1", 0);
  UdpSocket b("127.0.0.1", 0);
  ASSERT_TRUE(a.connect_peer("127.0.0.1", b.local_port()));
  a.send({});
  ASSERT_TRUE(b.wait_readable(seconds(1)));
  const auto got = b.try_recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

}  // namespace
}  // namespace rtct::net
