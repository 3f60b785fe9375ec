// Unit + property tests for SyncPeer — the paper's Algorithm 2.
//
// The sans-IO design lets these tests drive every protocol branch with a
// hand-rolled channel: perfect, lossy, duplicating, reordering — and
// verify the invariant the whole paper rests on: both sites deliver the
// SAME merged input for every frame, where each site's bits are exactly
// what that site submitted BufFrame frames earlier.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/core/sync_peer.h"

namespace rtct::core {
namespace {

// Frame-start time for submit_local wherever a test does not read the
// input-age stamp.
constexpr Time kT0 = 0;

SyncConfig test_config() {
  SyncConfig cfg;  // paper defaults: 60 FPS, BufFrame=6, flush 20 ms
  return cfg;
}

// ---- basic Algorithm 2 semantics --------------------------------------------

TEST(SyncPeerTest, FirstBufFrameFramesAreTriviallyReady) {
  // §3.1: "for the first six frames, the exit condition is trivially
  // satisfied and empty inputs are returned".
  SyncPeer peer(0, test_config());
  for (FrameNo f = 0; f < 6; ++f) {
    peer.submit_local(f, make_input(0xFF, 0), kT0);
    ASSERT_TRUE(peer.ready()) << "frame " << f;
    EXPECT_EQ(peer.pop(), 0) << "frame " << f;  // empty input
  }
  peer.submit_local(6, make_input(1, 0), kT0);
  EXPECT_FALSE(peer.ready());  // frame 6 needs the remote partial input
}

TEST(SyncPeerTest, LocalInputAppliesAfterLocalLag) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  // Run lockstep with a perfect instant channel.
  std::vector<InputWord> delivered_a;
  for (FrameNo f = 0; f < 20; ++f) {
    a.submit_local(f, make_input(static_cast<std::uint8_t>(f + 1), 0), kT0);
    b.submit_local(f, make_input(0, static_cast<std::uint8_t>(f + 101)), kT0);
    if (auto m = a.make_message(f)) b.ingest(*m, f);
    if (auto m = b.make_message(f)) a.ingest(*m, f);
    ASSERT_TRUE(a.ready());
    ASSERT_TRUE(b.ready());
    const InputWord ia = a.pop();
    const InputWord ib = b.pop();
    ASSERT_EQ(ia, ib) << "replicas disagree at frame " << f;
    delivered_a.push_back(ia);
  }
  // Frames 0-5: empty. Frame 6+: inputs submitted at frame f-6.
  for (int f = 0; f < 6; ++f) EXPECT_EQ(delivered_a[f], 0);
  for (int f = 6; f < 20; ++f) {
    EXPECT_EQ(player_byte(delivered_a[f], 0), f - 6 + 1);
    EXPECT_EQ(player_byte(delivered_a[f], 1), f - 6 + 101);
  }
}

TEST(SyncPeerTest, NotReadyUntilRemoteArrives) {
  SyncPeer a(0, test_config());
  for (FrameNo f = 0; f < 10; ++f) a.submit_local(f, 0, kT0);
  for (FrameNo f = 0; f < 6; ++f) (void)a.pop();
  EXPECT_FALSE(a.ready());  // pointer at 6, no remote input ever
  EXPECT_EQ(a.pointer(), 6);
}

TEST(SyncPeerTest, MakeMessageCarriesUnackedWindow) {
  SyncPeer a(0, test_config());
  for (FrameNo f = 0; f < 3; ++f) {
    a.submit_local(f, make_input(static_cast<std::uint8_t>(f), 0), kT0);
  }
  const auto m = a.make_message(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first_frame, 6);       // LastAckFrame(5) + 1
  EXPECT_EQ(m->last_frame(), 8);      // local inputs buffered to frame 2+6
  EXPECT_EQ(m->ack_frame, 5);         // nothing received yet
  ASSERT_EQ(m->inputs.size(), 3u);
  EXPECT_EQ(player_byte(m->inputs[2], 0), 2);
}

TEST(SyncPeerTest, NoNewInfoMeansNoMessage) {
  SyncPeer a(0, test_config());
  EXPECT_FALSE(a.make_message(0).has_value());  // nothing submitted, nothing to ack
}

TEST(SyncPeerTest, UnackedInputsAreResentEveryFlush) {
  // The go-back-N behaviour of lines 7-11: without an ack, consecutive
  // messages re-carry the same window.
  SyncPeer a(0, test_config());
  a.submit_local(0, make_input(9, 0), kT0);
  const auto m1 = a.make_message(0);
  const auto m2 = a.make_message(milliseconds(20));
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->first_frame, m2->first_frame);
  EXPECT_EQ(m1->inputs, m2->inputs);
  EXPECT_EQ(a.stats().inputs_retransmitted, 1u);
}

TEST(SyncPeerTest, AckShrinksTheWindow) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  for (FrameNo f = 0; f < 4; ++f) a.submit_local(f, 0, kT0);
  const auto m = a.make_message(0);
  ASSERT_TRUE(m);
  b.ingest(*m, 0);
  const auto ack = b.make_message(1);  // carries ack_frame = 9
  ASSERT_TRUE(ack);
  EXPECT_EQ(ack->ack_frame, 9);
  a.ingest(*ack, 1);
  EXPECT_EQ(a.last_ack_frame(), 9);
  a.submit_local(4, make_input(5, 0), kT0);
  const auto m2 = a.make_message(2);
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->first_frame, 10);  // only the new frame
  EXPECT_EQ(m2->inputs.size(), 1u);
}

TEST(SyncPeerTest, PureAckWhenNothingToSend) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  b.submit_local(0, make_input(0, 3), kT0);
  a.ingest(*b.make_message(0), 0);
  // a has nothing local to send but owes an ack.
  const auto m = a.make_message(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->inputs.empty());
  EXPECT_EQ(m->ack_frame, 6);
  // And once sent, silence until something changes.
  EXPECT_FALSE(a.make_message(2).has_value());
}

TEST(SyncPeerTest, DuplicateIngestIsIdempotent) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  a.submit_local(0, make_input(0x42, 0), kT0);
  const auto m = a.make_message(0);
  ASSERT_TRUE(m);
  b.ingest(*m, 0);
  b.ingest(*m, 1);  // duplicated datagram
  b.ingest(*m, 2);
  EXPECT_EQ(b.stats().duplicate_inputs_rcvd, 2u);
  EXPECT_EQ(b.last_rcv_frame(0), 6);
}

TEST(SyncPeerTest, ReorderedOldMessageDoesNotRegress) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  a.submit_local(0, make_input(1, 0), kT0);
  const auto old_msg = a.make_message(0);
  a.submit_local(1, make_input(2, 0), kT0);
  const auto new_msg = a.make_message(milliseconds(20));
  ASSERT_TRUE(old_msg && new_msg);
  b.ingest(*new_msg, 0);
  EXPECT_EQ(b.last_rcv_frame(0), 7);
  b.ingest(*old_msg, 1);  // late arrival of the older message
  EXPECT_EQ(b.last_rcv_frame(0), 7);
}

TEST(SyncPeerTest, WrongSiteMessagesDropped) {
  SyncPeer a(0, test_config());
  SyncMsg bogus;
  bogus.site = 0;  // claims to be from ourselves
  bogus.first_frame = 6;
  bogus.inputs = {0xFFFF};
  a.ingest(bogus, 0);
  EXPECT_EQ(a.stats().stale_messages, 1u);
  EXPECT_EQ(a.last_rcv_frame(1), 5);  // unchanged
}

TEST(SyncPeerTest, WindowCapRespected) {
  SyncConfig cfg = test_config();
  cfg.max_inputs_per_message = 10;
  SyncPeer a(0, cfg);
  for (FrameNo f = 0; f < 50; ++f) a.submit_local(f, 0, kT0);
  const auto m = a.make_message(0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->inputs.size(), 10u);
}

TEST(SyncPeerTest, RttEstimateFromEchoes) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  const Dur owd = milliseconds(30);
  Time now = 0;
  for (FrameNo f = 0; f < 30; ++f) {
    a.submit_local(f, 0, kT0);
    b.submit_local(f, 0, kT0);
    if (auto m = a.make_message(now)) b.ingest(*m, now + owd);
    if (auto m = b.make_message(now)) a.ingest(*m, now + owd);
    now += milliseconds(20);
  }
  // Echo scheme: rtt ≈ 2*owd (echo_hold subtracts the 20 ms turnaround).
  EXPECT_NEAR(to_ms(a.rtt()), 60.0, 8.0);
  EXPECT_GT(a.stats().rtt_samples, 0u);
}

TEST(SyncPeerTest, RemoteObsTracksMasterProgress) {
  SyncPeer slave(1, test_config());
  EXPECT_FALSE(slave.remote_obs().valid);
  SyncPeer master(0, test_config());
  master.submit_local(0, 0, kT0);
  slave.ingest(*master.make_message(0), milliseconds(33));
  const auto obs = slave.remote_obs();
  EXPECT_TRUE(obs.valid);
  EXPECT_EQ(obs.last_rcv_frame, 6);  // includes local lag
  EXPECT_EQ(obs.rcv_time, milliseconds(33));
}

// Algorithm 4 read MasterRcvTime - RTT/2 as the start of the master's frame,
// but that is when the *flush* carrying its input left, up to a flush period
// after the frame began. The message now carries the input's age, and the
// observation moves back by exactly that much.
TEST(SyncPeerTest, InputAgeMovesTheObservationBackByExactlyTheStamp) {
  SyncPeer master(0, test_config());
  SyncPeer slave(1, test_config());
  master.submit_local(0, make_input(1, 0), milliseconds(100));
  const auto m = master.make_message(milliseconds(100) + microseconds(13'750));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->input_age_us, 13'750);
  slave.ingest(*m, milliseconds(150));
  EXPECT_EQ(slave.remote_obs().last_rcv_frame, 6);
  EXPECT_EQ(slave.remote_obs().rcv_time, milliseconds(150) - microseconds(13'750));

  // Ack-only: nothing to stamp, and the observation does not move.
  slave.submit_local(0, 0, milliseconds(100));
  master.ingest(*slave.make_message(milliseconds(150)), milliseconds(160));
  const auto ack = master.make_message(milliseconds(170));
  ASSERT_TRUE(ack);
  EXPECT_TRUE(ack->inputs.empty());
  EXPECT_EQ(ack->input_age_us, kNoInputAge);
}

TEST(SyncPeerTest, WindowCappedMessageCarriesNoInputAge) {
  SyncConfig cfg = test_config();
  cfg.max_inputs_per_message = 2;
  SyncPeer master(0, cfg);
  SyncPeer slave(1, cfg);
  for (FrameNo f = 0; f < 4; ++f) master.submit_local(f, 0, milliseconds(16) * f);
  // Frames 6..7 go out; the newest input (9) does not, so its age says
  // nothing about them and the observation keeps the arrival time.
  const auto m = master.make_message(milliseconds(60));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->last_frame(), 7);
  EXPECT_EQ(m->input_age_us, kNoInputAge);
  slave.ingest(*m, milliseconds(80));
  EXPECT_EQ(slave.remote_obs().rcv_time, milliseconds(80));
}

TEST(SyncPeerTest, ForgedEchoFromTheFutureGivesNoRttSample) {
  // Regression (found by the ingest fuzzer under UBSan): the decoder admits
  // any non-negative echo_time and echo_hold, and recv - echo - hold
  // overflowed int64 into a huge positive "RTT" sample.
  SyncPeer a(0, test_config());
  SyncMsg m;
  m.site = 1;
  m.ack_frame = 5;
  m.first_frame = 6;
  m.echo_time = std::numeric_limits<Time>::max() - 5;
  m.echo_hold = std::numeric_limits<Dur>::max() / 2;
  a.ingest(m, milliseconds(1));
  EXPECT_FALSE(a.has_rtt_sample());
}

TEST(SyncPeerTest, ZeroRttLoopbackIsARealSample) {
  // Regression: the estimator used `rtt_ == 0` as its "no sample yet"
  // sentinel, so a loopback link (true RTT ~0) re-seeded on every echo and
  // `rtt_samples` never reflected reality. A 0 ns sample must count.
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  EXPECT_FALSE(a.has_rtt_sample());
  Time now = 0;
  for (FrameNo f = 0; f < 10; ++f) {
    a.submit_local(f, 0, kT0);
    b.submit_local(f, 0, kT0);
    if (auto m = a.make_message(now)) b.ingest(*m, now);  // zero delay
    if (auto m = b.make_message(now)) a.ingest(*m, now);
    now += milliseconds(20);
  }
  EXPECT_TRUE(a.has_rtt_sample());
  EXPECT_EQ(a.rtt(), 0);  // measured ~0, NOT "unmeasured"
  EXPECT_GE(a.stats().rtt_samples, 3u);
  EXPECT_EQ(a.stats().rtt_samples, a.rtt_estimator().sample_count());
}

TEST(SyncPeerTest, ZeroRttDoesNotReseedTheEstimator) {
  // With the old sentinel, srtt==0 meant the NEXT sample re-seeded the
  // estimator wholesale. Now a later spike must be smoothed (1/8 gain),
  // not adopted outright.
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  a.submit_local(0, 0, kT0);
  b.ingest(*a.make_message(0), 0);
  a.ingest(*b.make_message(0), 0);  // echo round-trip: 0 ns sample
  ASSERT_TRUE(a.has_rtt_sample());
  ASSERT_EQ(a.rtt(), 0);
  // Second round-trip suddenly takes 40 ms.
  a.submit_local(1, 0, kT0);
  b.ingest(*a.make_message(milliseconds(20)), milliseconds(20));
  a.ingest(*b.make_message(milliseconds(20)), milliseconds(60));
  EXPECT_EQ(a.stats().rtt_samples, 2u);
  EXPECT_EQ(a.rtt(), milliseconds(40) / 8);  // smoothed, not re-seeded
}

// ---- adaptive retransmission (RTO timer + redundancy tail) -------------------

SyncConfig adaptive_config(int redundancy = 0) {
  SyncConfig cfg;
  cfg.adaptive_resend = true;
  cfg.redundant_inputs = redundancy;
  cfg.initial_rto = milliseconds(100);
  return cfg;
}

TEST(SyncPeerAdaptiveTest, NoBlindResendBeforeRtoFires) {
  SyncPeer a(0, adaptive_config());
  a.submit_local(0, make_input(7, 0), kT0);
  const auto m1 = a.make_message(0);
  ASSERT_TRUE(m1);
  EXPECT_EQ(m1->inputs.size(), 1u);
  // Flush ticks before the 100 ms RTO: nothing new => silence, where the
  // paper policy would re-send the window every 20 ms.
  EXPECT_FALSE(a.make_message(milliseconds(20)).has_value());
  EXPECT_FALSE(a.make_message(milliseconds(40)).has_value());
  EXPECT_EQ(a.stats().inputs_retransmitted, 0u);
  EXPECT_EQ(a.stats().rto_fires, 0u);
}

TEST(SyncPeerAdaptiveTest, RtoFireResendsWindowAndBacksOff) {
  SyncPeer a(0, adaptive_config());
  a.submit_local(0, make_input(7, 0), kT0);
  ASSERT_TRUE(a.make_message(0).has_value());  // arms the timer (RTO 100 ms)
  const auto r1 = a.make_message(milliseconds(100));
  ASSERT_TRUE(r1.has_value());  // timer fired: full window resend
  EXPECT_EQ(r1->inputs.size(), 1u);
  EXPECT_EQ(a.stats().rto_fires, 1u);
  EXPECT_EQ(a.stats().inputs_retransmitted, 1u);
  // Backoff doubled: next fire no earlier than 100+200 ms.
  EXPECT_FALSE(a.make_message(milliseconds(200)).has_value());
  const auto r2 = a.make_message(milliseconds(300));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(a.stats().rto_fires, 2u);
}

TEST(SyncPeerAdaptiveTest, AckProgressResetsBackoff) {
  SyncPeer a(0, adaptive_config());
  SyncPeer b(1, adaptive_config());
  a.submit_local(0, make_input(7, 0), kT0);
  ASSERT_TRUE(a.make_message(0).has_value());
  ASSERT_TRUE(a.make_message(milliseconds(100)).has_value());  // RTO fire #1
  EXPECT_EQ(a.current_rto(), milliseconds(200));               // backed off 2x
  // The peer finally acks everything.
  b.ingest(*a.make_message(milliseconds(300)), milliseconds(300));
  a.ingest(*b.make_message(milliseconds(300)), milliseconds(300));
  EXPECT_EQ(a.last_ack_frame(), 6);
  EXPECT_EQ(a.current_rto(), a.rtt_estimator().rto());  // backoff reset
}

TEST(SyncPeerAdaptiveTest, RedundantTailRecarriesLastKFlushes) {
  // The tail is measured in flushes, not entries: everything first sent
  // within the last K flushes rides along, so a whole catch-up burst is
  // re-carried K times (a newest-K-entries tail could never refill a
  // lost burst and would stall out a full RTO).
  SyncPeer a(0, adaptive_config(/*redundancy=*/2));
  for (FrameNo f = 0; f < 3; ++f) {
    a.submit_local(f, make_input(static_cast<std::uint8_t>(f), 0), kT0);
  }
  const auto m1 = a.make_message(0);
  ASSERT_TRUE(m1);
  EXPECT_EQ(m1->inputs.size(), 3u);  // frames 6..8, all new
  EXPECT_EQ(a.stats().redundant_inputs_sent, 0u);
  // Next flush: the 3-input burst from flush 1 is still inside the
  // 2-flush protection window and is re-carried whole with the new input.
  a.submit_local(3, make_input(3, 0), kT0);
  const auto m2 = a.make_message(milliseconds(20));
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->first_frame, 6);
  EXPECT_EQ(m2->inputs.size(), 4u);
  EXPECT_EQ(a.stats().redundant_inputs_sent, 3u);
  EXPECT_EQ(a.stats().inputs_retransmitted, 3u);
  // Third flush: the burst is still covered (sent at flush 1, re-sent at
  // flushes 2 and 3 = K re-sends)...
  a.submit_local(4, make_input(4, 0), kT0);
  const auto m3 = a.make_message(milliseconds(40));
  ASSERT_TRUE(m3);
  EXPECT_EQ(m3->first_frame, 6);
  EXPECT_EQ(m3->inputs.size(), 5u);
  // ...and ages out of the tail on the fourth.
  a.submit_local(5, make_input(5, 0), kT0);
  const auto m4 = a.make_message(milliseconds(60));
  ASSERT_TRUE(m4);
  EXPECT_EQ(m4->first_frame, 9);  // flush-1 frames 6..8 no longer carried
  EXPECT_EQ(m4->inputs.size(), 3u);
}

TEST(SyncPeerAdaptiveTest, RedundancyTailNeverCrossesTheAck) {
  // Tail is clamped at the unacked boundary: acked inputs are never resent.
  SyncPeer a(0, adaptive_config(/*redundancy=*/4));
  SyncPeer b(1, adaptive_config(/*redundancy=*/4));
  a.submit_local(0, 0, kT0);
  b.ingest(*a.make_message(0), 0);
  a.ingest(*b.make_message(0), 0);  // acks frame 6
  a.submit_local(1, make_input(1, 0), kT0);
  const auto m = a.make_message(milliseconds(20));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->first_frame, 7);  // tail cannot reach the acked frame 6
  EXPECT_EQ(m->inputs.size(), 1u);
}

// ---- negotiated local lag (set_buf_frames) -----------------------------------

TEST(SyncPeerTest, SetBufFramesReinitializesTheWindow) {
  SyncPeer a(0, test_config());
  ASSERT_TRUE(a.set_buf_frames(12));
  EXPECT_EQ(a.config().buf_frames, 12);
  EXPECT_EQ(a.last_ack_frame(), 11);
  for (FrameNo f = 0; f < 12; ++f) {
    a.submit_local(f, make_input(0xFF, 0), kT0);
    ASSERT_TRUE(a.ready()) << "frame " << f;
    EXPECT_EQ(a.pop(), 0);
  }
  EXPECT_FALSE(a.ready());  // frame 12 needs the remote input
}

TEST(SyncPeerTest, SetBufFramesRefusedOnceProtocolMoved) {
  SyncPeer a(0, test_config());
  a.submit_local(0, make_input(1, 0), kT0);
  EXPECT_FALSE(a.set_buf_frames(12));  // local input already buffered
  EXPECT_EQ(a.config().buf_frames, test_config().buf_frames);

  SyncPeer b(1, test_config());
  SyncPeer c(0, test_config());
  c.submit_local(0, 0, kT0);
  b.ingest(*c.make_message(0), 0);
  EXPECT_FALSE(b.set_buf_frames(12));  // remote input already merged

  SyncPeer d(0, test_config());
  (void)d.pop();
  EXPECT_FALSE(d.set_buf_frames(12));  // pointer already advanced
}

// ---- desync detection ----------------------------------------------------------

TEST(SyncPeerDesyncTest, AgreementKeepsQuiet) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  for (FrameNo f = 0; f <= 120; ++f) {
    a.note_state_hash(f, 1000 + static_cast<std::uint64_t>(f));
    b.note_state_hash(f, 1000 + static_cast<std::uint64_t>(f));
  }
  a.submit_local(120, 0, kT0);
  b.ingest(*a.make_message(0), 0);
  EXPECT_FALSE(b.desync_detected());
}

TEST(SyncPeerDesyncTest, MismatchFlagsWhenReceiverIsAhead) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  a.note_state_hash(60, 0xAAAA);
  b.note_state_hash(60, 0xBBBB);  // b already executed frame 60 differently
  a.submit_local(0, 0, kT0);
  b.ingest(*a.make_message(0), 0);
  EXPECT_TRUE(b.desync_detected());
  EXPECT_EQ(b.desync_frame(), 60);
}

TEST(SyncPeerDesyncTest, MismatchFlagsWhenReceiverIsBehind) {
  SyncPeer a(0, test_config());
  SyncPeer b(1, test_config());
  a.note_state_hash(60, 0xAAAA);
  a.submit_local(0, 0, kT0);
  b.ingest(*a.make_message(0), 0);  // b has not reached frame 60 yet
  EXPECT_FALSE(b.desync_detected());
  b.note_state_hash(60, 0xBBBB);  // now it gets there, with a different hash
  EXPECT_TRUE(b.desync_detected());
  EXPECT_EQ(b.desync_frame(), 60);
}

TEST(SyncPeerDesyncTest, OnlyIntervalFramesAreHashed) {
  SyncConfig cfg = test_config();
  cfg.hash_interval = 60;
  SyncPeer a(0, cfg);
  a.note_state_hash(59, 0x1);  // not an interval frame: ignored
  a.submit_local(0, 0, kT0);
  const auto m = a.make_message(0);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->hash_frame, -1);
  a.note_state_hash(60, 0x2);
  const auto m2 = a.make_message(milliseconds(20));
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->hash_frame, 60);
  EXPECT_EQ(m2->state_hash, 0x2u);
}

TEST(SyncPeerDesyncTest, DisabledByZeroInterval) {
  SyncConfig cfg = test_config();
  cfg.hash_interval = 0;
  SyncPeer a(0, cfg);
  SyncPeer b(1, cfg);
  a.note_state_hash(60, 0xAAAA);
  b.note_state_hash(60, 0xBBBB);
  a.submit_local(0, 0, kT0);
  b.ingest(*a.make_message(0), 0);
  EXPECT_FALSE(b.desync_detected());
}

// ---- property test: random hostile channels ----------------------------------

struct ChannelPacket {
  Time deliver_at;
  SyncMsg msg;
};

/// A deliberately nasty unidirectional channel: random delay, loss,
/// duplication (=> reordering falls out of random delays). Guarantees
/// eventual delivery by never dropping two consecutive sends.
class HostileChannel {
 public:
  HostileChannel(Rng rng, Dur min_delay, Dur max_delay, double loss)
      : rng_(rng), min_delay_(min_delay), max_delay_(max_delay), loss_(loss) {}

  void send(Time now, const SyncMsg& msg) {
    const bool drop = rng_.bernoulli(loss_) && !dropped_last_;
    dropped_last_ = drop;
    if (drop) return;
    const int copies = rng_.bernoulli(0.15) ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      const Dur d = min_delay_ + rng_.uniform(0, max_delay_ - min_delay_);
      inflight_.push_back({now + d, msg});
    }
  }

  std::vector<SyncMsg> deliver_due(Time now) {
    std::vector<SyncMsg> out;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->deliver_at <= now) {
        out.push_back(it->msg);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }

 private:
  Rng rng_;
  Dur min_delay_, max_delay_;
  double loss_;
  bool dropped_last_ = false;
  std::deque<ChannelPacket> inflight_;
};

class SyncPeerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SyncPeerPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

TEST_P(SyncPeerPropertyTest, LockstepInvariantUnderHostileNetwork) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  SyncConfig cfg = test_config();
  SyncPeer peers[2] = {SyncPeer(0, cfg), SyncPeer(1, cfg)};
  HostileChannel ch01(rng.fork(), milliseconds(5), milliseconds(90), 0.25);
  HostileChannel ch10(rng.fork(), milliseconds(5), milliseconds(90), 0.25);

  constexpr FrameNo kFrames = 120;
  // Per-site input scripts (what each site's player "pressed" per frame).
  std::vector<std::uint8_t> script[2];
  for (int s = 0; s < 2; ++s) {
    for (FrameNo f = 0; f < kFrames; ++f) {
      script[s].push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
  }

  std::vector<InputWord> delivered[2];
  FrameNo submitted[2] = {0, 0};
  Time next_flush[2] = {0, 0};
  Time now = 0;
  const Time deadline = seconds(120);

  while ((delivered[0].size() < kFrames || delivered[1].size() < kFrames) && now < deadline) {
    now += milliseconds(1);
    for (int s = 0; s < 2; ++s) {
      auto& peer = peers[s];
      auto& in_ch = s == 0 ? ch10 : ch01;
      auto& out_ch = s == 0 ? ch01 : ch10;

      for (const auto& msg : in_ch.deliver_due(now)) peer.ingest(msg, now);

      // Frame loop emulation: submit + pop when ready, random pacing.
      if (submitted[s] < kFrames && peer.pointer() == submitted[s]) {
        peer.submit_local(submitted[s],
                          s == 0 ? make_input(script[0][submitted[s]], 0)
                                 : make_input(0, script[1][submitted[s]]),
                          now);
        ++submitted[s];
      }
      if (delivered[s].size() < kFrames && peer.ready() &&
          peer.pointer() < submitted[s]) {
        delivered[s].push_back(peer.pop());
      }
      if (now >= next_flush[s]) {
        next_flush[s] = now + milliseconds(20);
        if (auto m = peer.make_message(now)) out_ch.send(now, *m);
      }
    }
  }

  ASSERT_EQ(delivered[0].size(), kFrames) << "site 0 deadlocked (seed " << seed << ")";
  ASSERT_EQ(delivered[1].size(), kFrames) << "site 1 deadlocked (seed " << seed << ")";

  for (FrameNo f = 0; f < kFrames; ++f) {
    // Invariant 1: both replicas saw the identical merged input.
    ASSERT_EQ(delivered[0][f], delivered[1][f]) << "divergence at frame " << f;
    // Invariant 2: the merged input is exactly the two scripts, shifted by
    // the local lag.
    const InputWord expect =
        f < cfg.buf_frames
            ? 0
            : make_input(script[0][f - cfg.buf_frames], script[1][f - cfg.buf_frames]);
    ASSERT_EQ(delivered[0][f], expect) << "wrong input at frame " << f;
  }
}

}  // namespace
}  // namespace rtct::core
