// Unit tests for the wire codec: round trips and hostile-input handling.
#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/bytes.h"
#include "src/core/config.h"
#include "src/core/wire.h"

namespace rtct::core {
namespace {

TEST(WireTest, SyncMsgRoundTrip) {
  SyncMsg m;
  m.site = 1;
  m.ack_frame = 123;
  m.first_frame = 100;
  m.inputs = {0x0001, 0x1200, 0xFFFF};
  m.send_time = milliseconds(4567);
  m.echo_time = milliseconds(4500);
  m.echo_hold = milliseconds(3);
  m.input_age_us = 12'345;

  const auto bytes = encode_message(Message{m});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<SyncMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->site, 1);
  EXPECT_EQ(out->ack_frame, 123);
  EXPECT_EQ(out->first_frame, 100);
  EXPECT_EQ(out->inputs, m.inputs);
  EXPECT_EQ(out->last_frame(), 102);
  EXPECT_EQ(out->send_time, m.send_time);
  EXPECT_EQ(out->echo_time, m.echo_time);
  EXPECT_EQ(out->echo_hold, m.echo_hold);
  EXPECT_EQ(out->input_age_us, 12'345);
}

TEST(WireTest, SyncMsgV4Layout) {
  // v4: one-byte site (v3: four) plus a two-byte input age, so a SYNC
  // costs one byte less than before: 64 B + 2 per input.
  SyncMsg m;
  m.site = 7;  // the highest site InputBuffer holds
  m.inputs = {1, 2, 3};
  const auto bytes = encode_message(Message{m});
  EXPECT_EQ(bytes.size(), 64u + 2 * 3);
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SyncMsg>(*decoded).site, 7);
  // Unstamped by default: the sentinel survives the round trip.
  EXPECT_EQ(std::get<SyncMsg>(*decoded).input_age_us, kNoInputAge);
  // The largest age is a value, not the sentinel.
  m.input_age_us = kMaxInputAge;
  EXPECT_EQ(std::get<SyncMsg>(*decode_message(encode_message(Message{m}))).input_age_us,
            kMaxInputAge);
  m.site = 8;  // past InputBuffer::kMaxSites
  EXPECT_FALSE(decode_message(encode_message(Message{m})).has_value());
}

TEST(WireTest, InputAgeStampsOnlyTheNewestInputAndSaturates) {
  SyncMsg m;
  m.first_frame = 10;
  m.inputs = {1, 2, 3};  // frames 10..12
  const Time start = milliseconds(100);
  stamp_input_age(m, 12, start, start + microseconds(7'250));
  EXPECT_EQ(m.input_age_us, 7'250);

  SyncMsg capped = m;  // the window stops short of the newest input (13)
  capped.input_age_us = kNoInputAge;
  stamp_input_age(capped, 13, start, start + milliseconds(5));
  EXPECT_EQ(capped.input_age_us, kNoInputAge);

  SyncMsg ack_only;
  stamp_input_age(ack_only, 12, start, start + milliseconds(5));
  EXPECT_EQ(ack_only.input_age_us, kNoInputAge);

  SyncMsg old = m;  // 70 ms does not fit in u16 µs: saturate, never wrap
  stamp_input_age(old, 12, start, start + milliseconds(70));
  EXPECT_EQ(old.input_age_us, kMaxInputAge);

  // Receiver: only a watermark that lands on the stamped input moves back.
  const Time recv = milliseconds(200);
  EXPECT_EQ(observed_input_time(m, 12, recv), recv - microseconds(7'250));
  EXPECT_EQ(observed_input_time(m, 11, recv), recv);
  EXPECT_EQ(observed_input_time(capped, 12, recv), recv);
}

TEST(WireTest, EmptyInputsSyncMsgIsPureAck) {
  SyncMsg m;
  m.site = 0;
  m.ack_frame = 50;
  m.first_frame = 51;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<SyncMsg>(*decoded).inputs.empty());
}

TEST(WireTest, HelloRoundTrip) {
  HelloMsg h;
  h.site = 1;
  h.protocol_version = kProtocolVersion;
  h.rom_checksum = 0xDEADBEEFCAFEF00Dull;
  h.cfps = 60;
  h.buf_frames = 6;
  const auto decoded = decode_message(encode_message(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  const auto& out = std::get<HelloMsg>(*decoded);
  EXPECT_EQ(out.rom_checksum, h.rom_checksum);
  EXPECT_EQ(out.cfps, 60);
  EXPECT_EQ(out.buf_frames, 6);
  // v2 fields keep their "unset" defaults through the codec.
  EXPECT_EQ(out.hello_time, 0);
  EXPECT_EQ(out.echo_time, -1);
  EXPECT_EQ(out.adv_rtt, -1);
  EXPECT_EQ(out.flags, 0);
  EXPECT_EQ(out.redundancy, 0);
}

TEST(WireTest, HelloV2FieldsRoundTrip) {
  HelloMsg h;
  h.site = 0;
  h.protocol_version = kProtocolVersion;
  h.hello_time = milliseconds(150);
  h.echo_time = milliseconds(100);
  h.echo_hold = milliseconds(7);
  h.adv_rtt = milliseconds(42);
  h.flags = kHelloFlagAdaptiveLag;
  h.redundancy = 2;
  const auto decoded = decode_message(encode_message(Message{h}));
  ASSERT_TRUE(decoded.has_value());
  const auto& out = std::get<HelloMsg>(*decoded);
  EXPECT_EQ(out.hello_time, milliseconds(150));
  EXPECT_EQ(out.echo_time, milliseconds(100));
  EXPECT_EQ(out.echo_hold, milliseconds(7));
  EXPECT_EQ(out.adv_rtt, milliseconds(42));
  EXPECT_EQ(out.flags, kHelloFlagAdaptiveLag);
  EXPECT_EQ(out.redundancy, 2);
}

TEST(WireTest, StartRoundTrip) {
  const auto decoded = decode_message(encode_message(Message{StartMsg{0}}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<StartMsg>(*decoded).site, 0);
  EXPECT_EQ(std::get<StartMsg>(*decoded).buf_frames, 0);  // 0 = fixed lag
}

TEST(WireTest, StartCarriesNegotiatedBufFrames) {
  StartMsg s;
  s.site = 0;
  s.buf_frames = 17;
  const auto decoded = decode_message(encode_message(Message{s}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<StartMsg>(*decoded).buf_frames, 17);
}

TEST(WireTest, StartCarriesDigestFlags) {
  StartMsg s;
  s.site = 1;
  s.buf_frames = 6;
  s.flags = kFlagStateDigestV2;
  const auto decoded = decode_message(encode_message(Message{s}));
  ASSERT_TRUE(decoded.has_value());
  const auto& out = std::get<StartMsg>(*decoded);
  EXPECT_EQ(out.flags, kFlagStateDigestV2);
  EXPECT_EQ(out.buf_frames, 6);
  // flags defaults to 0 and round-trips as such (v1-digest sessions).
  const auto plain = decode_message(encode_message(Message{StartMsg{0}}));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(std::get<StartMsg>(*plain).flags, 0);
}

TEST(WireTest, EncodeIntoMatchesEncode) {
  // The reuse-buffer encoder must be byte-identical to the allocating one,
  // including when the scratch arrives dirty and over-sized.
  SyncMsg m;
  m.ack_frame = 41;
  m.first_frame = 42;
  m.inputs = {0x1111, 0x2222, 0x3333};
  std::vector<std::uint8_t> scratch(512, 0xEE);
  encode_message_into(Message{m}, scratch);
  EXPECT_EQ(scratch, encode_message(Message{m}));

  SnapshotMsg snap;
  snap.frame = 99;
  snap.state = {1, 2, 3, 4, 5};
  encode_message_into(Message{snap}, scratch);
  EXPECT_EQ(scratch, encode_message(Message{snap}));
}

TEST(WireTest, EncodeSnapshotIntoMatchesMessagePath) {
  // The hub's hand-rolled snapshot encoder (no SnapshotMsg copy of the
  // state vector) must produce the exact bytes of the ordinary path.
  const std::vector<std::uint8_t> state = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  SnapshotMsg snap;
  snap.frame = 0;  // the earliest frame the decoder accepts
  snap.state = state;
  std::vector<std::uint8_t> direct;
  encode_snapshot_into(snap.frame, state, direct);
  EXPECT_EQ(direct, encode_message(Message{snap}));
  const auto decoded = decode_message(direct);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SnapshotMsg>(*decoded).state, state);
}

TEST(WireTest, NegativeFramesSurvive) {
  // LastAckFrame starts at BufFrame-1; with BufFrame=0 frames could be -1.
  SyncMsg m;
  m.ack_frame = -1;
  m.first_frame = 0;
  m.echo_time = -1;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SyncMsg>(*decoded).ack_frame, -1);
  EXPECT_EQ(std::get<SyncMsg>(*decoded).echo_time, -1);
}

// ---- hostile input -----------------------------------------------------------

TEST(WireTest, OutOfRangeFieldsRejected) {
  // docs/PROTOCOL.md "Decoder rejection rules": every frame number and
  // timestamp has a documented floor and a 2^48 ceiling; a forged field
  // outside its range must kill the whole message at decode time.
  const auto rejected = [](const Message& m) {
    return !decode_message(encode_message(m)).has_value();
  };

  SyncMsg sync;
  sync.first_frame = -1;  // floor is 0: inputs for frame -1 don't exist
  EXPECT_TRUE(rejected(Message{sync}));
  sync = {};
  sync.first_frame = FrameNo{1} << 48;  // at the ceiling
  EXPECT_TRUE(rejected(Message{sync}));
  sync = {};
  sync.ack_frame = -2;  // below the -1 sentinel
  EXPECT_TRUE(rejected(Message{sync}));
  sync = {};
  sync.send_time = -1;  // timestamps are never negative
  EXPECT_TRUE(rejected(Message{sync}));

  HelloMsg hello;
  hello.hello_time = -5;
  EXPECT_TRUE(rejected(Message{hello}));
  hello = {};
  hello.echo_time = -2;
  EXPECT_TRUE(rejected(Message{hello}));

  SnapshotMsg snap;
  snap.frame = -1;  // no producer snapshots before frame 0
  EXPECT_TRUE(rejected(Message{snap}));
  snap.frame = 0;
  EXPECT_FALSE(rejected(Message{snap}));

  InputFeedMsg feed;
  feed.first_frame = -1;
  EXPECT_TRUE(rejected(Message{feed}));

  FeedAckMsg ack;
  ack.frame = -2;  // -1 is the legitimate pre-game ack sentinel
  EXPECT_TRUE(rejected(Message{ack}));
  ack.frame = -1;
  EXPECT_FALSE(rejected(Message{ack}));
}

TEST(WireTest, MaxInRangeFrameSurvives) {
  SyncMsg m;
  m.first_frame = (FrameNo{1} << 48) - 1;
  m.ack_frame = (FrameNo{1} << 48) - 1;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SyncMsg>(*decoded).first_frame, (FrameNo{1} << 48) - 1);
}

TEST(WireTest, EmptyAndUnknownTypeRejected) {
  EXPECT_FALSE(decode_message({}).has_value());
  const std::uint8_t junk[] = {0x7F, 1, 2, 3};
  EXPECT_FALSE(decode_message(junk).has_value());
}

TEST(WireTest, TruncationAtEveryPrefixRejected) {
  SyncMsg m;
  m.site = 1;
  m.inputs = {1, 2, 3, 4};
  const auto bytes = encode_message(Message{m});
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decode_message({bytes.data(), n}).has_value()) << "prefix " << n;
  }
}

TEST(WireTest, TrailingGarbageRejected) {
  auto bytes = encode_message(Message{StartMsg{0}});
  bytes.push_back(0xAA);
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(WireTest, AbsurdInputCountRejected) {
  // Hand-craft a sync header claiming 2^31 inputs; must fail fast, not OOM.
  ByteWriter w;
  w.u8(3);  // kSync
  w.u8(0);
  w.i64(0);
  w.i64(0);
  w.u32(0x80000000u);
  const auto data = w.take();
  EXPECT_FALSE(decode_message(data).has_value());
}

TEST(WireTest, ForgedCountBeyondPayloadRejected) {
  // Regression: decode used to reserve() for the claimed count BEFORE
  // checking the reader held 2 bytes per input — a short forged datagram
  // claiming n = kMaxWireInputs (4096) cost an 8 KiB allocation per packet
  // before the bounds check failed. The count must be validated against
  // the bytes actually present first.
  {
    ByteWriter w;  // 22-byte kSync datagram claiming 4096 inputs
    w.u8(3);       // kSync
    w.u8(1);       // site
    w.i64(0);      // ack_frame
    w.i64(0);      // first_frame
    w.u32(4096);   // forged count, zero payload behind it
    const auto data = w.take();
    EXPECT_FALSE(decode_message(data).has_value());
  }
  {
    ByteWriter w;  // kInputFeed: same forgery
    w.u8(6);
    w.i64(0);      // first_frame
    w.u32(4096);
    const auto data = w.take();
    EXPECT_FALSE(decode_message(data).has_value());
  }
  {
    ByteWriter w;  // kSnapshot claiming a 1 MiB body it does not carry
    w.u8(5);
    w.i64(0);      // frame
    w.u32(1u << 20);
    const auto data = w.take();
    EXPECT_FALSE(decode_message(data).has_value());
  }
}

TEST(WireTest, RandomBytesNeverCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(rng.uniform(0, 64));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)decode_message(noise);  // must not crash or throw
  }
}

TEST(WireTest, BitFlippedMessagesNeverCrash) {
  SyncMsg m;
  m.site = 0;
  m.inputs = {7, 8, 9};
  const auto bytes = encode_message(Message{m});
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = bytes;
    copy[rng.uniform(0, static_cast<std::int64_t>(copy.size()) - 1)] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    (void)decode_message(copy);
  }
}

}  // namespace
}  // namespace rtct::core
