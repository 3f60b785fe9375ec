// Wire messages of the sync protocol.
//
// SyncMsg carries exactly the paper's sd[0..3...] fields (Algorithm 2,
// lines 7-11) — a cumulative ack plus the contiguous window of local
// partial inputs the peer has not acknowledged — extended with three
// timestamp fields that implement the RTT estimation Algorithm 4 needs
// (the paper measures RTT but does not spell out how; we use the standard
// echo + hold-time scheme, e.g. TCP RFC 7323 style), plus the age of the
// newest input carried, so the slave can tell the master's frame start
// from the flush that carried its input.
//
// All encoding is explicit little-endian through ByteWriter/ByteReader;
// decode() treats input as untrusted network bytes and returns nullopt on
// anything malformed.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "src/common/time.h"
#include "src/common/types.h"

namespace rtct::core {

/// HelloMsg/StartMsg::flags bits (capability negotiation).
inline constexpr std::uint8_t kHelloFlagAdaptiveLag = 1u << 0;
/// In HELLO: "I can compare incremental (version-2) state digests". In
/// START: "this session compares version-2 digests" — set by the master
/// only when both sides advertised it.
inline constexpr std::uint8_t kFlagStateDigestV2 = 1u << 1;
/// In HELLO: "I am willing to run the rollback consistency mode". In
/// START: "this session runs rollback" — set by the master only when both
/// sides advertised it; START.buf_frames then carries the agreed local
/// input delay + 1 (offset by one so the field's 0 keeps its lockstep
/// meaning of "use your configured value").
inline constexpr std::uint8_t kFlagRollback = 1u << 2;

/// Session handshake: "I am here, running this game image with these
/// parameters" (§2 rendezvous + same-image requirement). v2 extends it
/// with an echoed-timestamp RTT probe (same scheme as SyncMsg) and the
/// sender's measured-RTT advert, feeding the adaptive-lag negotiation.
struct HelloMsg {
  SiteId site = 0;
  std::uint32_t protocol_version = 0;
  std::uint64_t rom_checksum = 0;
  std::uint16_t cfps = 0;
  std::uint16_t buf_frames = 0;

  // v2: RTT probe + adaptive negotiation.
  Time hello_time = 0;   ///< sender's clock when this HELLO was sent
  Time echo_time = -1;   ///< newest hello_time seen from the peer (-1 none)
  Dur echo_hold = 0;     ///< how long that echo was held before now
  Dur adv_rtt = -1;      ///< sender's smoothed RTT estimate (-1 unmeasured)
  std::uint8_t flags = 0;        ///< kHelloFlag* capability bits
  std::uint16_t redundancy = 0;  ///< sender's redundant-input tail K (FYI)
};

/// Master's go signal; the slave starts on receipt, giving at most one
/// one-way delay of start skew (§3.2). v2: when the sites negotiated an
/// RTT-adaptive local lag, `buf_frames` carries the agreed value (0 means
/// "use the configured fixed value").
/// (v3 adds `flags`, fixing the negotiated capabilities — a slave may
/// learn the outcome from START alone when every master HELLO was lost.)
struct StartMsg {
  SiteId site = 0;
  std::uint16_t buf_frames = 0;
  std::uint8_t flags = 0;  ///< kFlag* bits the session runs with
};

/// SyncMsg::input_age_us: "this message does not carry the sender's
/// newest input" (ack-only or window-capped). Every other value is an age.
inline constexpr std::uint16_t kNoInputAge = 0xFFFF;
/// Ages at or above this many µs (65.5 ms) are sent as this value.
inline constexpr std::uint16_t kMaxInputAge = 0xFFFE;

/// One flush of the sync module (Algorithm 2 lines 7-11).
struct SyncMsg {
  SiteId site = 0;        ///< sender (one byte on the wire: 0..7)
  FrameNo ack_frame = 0;  ///< sd[0]: LastRcvFrame[RmSiteNo] — cumulative ack
  FrameNo first_frame = 0;  ///< sd[1]: first input frame in `inputs`
  /// Partial inputs for frames first_frame .. first_frame+inputs.size()-1
  /// (sd[3...]; sd[2] is implied by the vector length).
  std::vector<InputWord> inputs;

  // RTT estimation (supports Algorithm 4's RTT/2 term).
  Time send_time = 0;   ///< sender's clock when this message was sent
  Time echo_time = -1;  ///< most recent send_time received from the peer
  Dur echo_hold = 0;    ///< how long the sender held that echo before now
  /// v4: how long before send_time the frame that produced the sender's
  /// newest input began, in µs (see stamp_input_age). Algorithm 4's slave
  /// subtracts it so it aligns to the master's frame start, not to the
  /// flush that happened to carry the input.
  std::uint16_t input_age_us = kNoInputAge;

  // Desync detection: the sender's state hash after executing hash_frame
  // (-1 = none attached). Receivers compare against their own hash for the
  // same frame — a mismatch proves the determinism assumption broke.
  FrameNo hash_frame = -1;
  std::uint64_t state_hash = 0;

  [[nodiscard]] FrameNo last_frame() const {
    return first_frame + static_cast<FrameNo>(inputs.size()) - 1;
  }
};

/// Sender half of the input-age stamp. `newest` is the highest local input
/// frame buffered and `newest_start` the local time the frame that produced
/// it began (-1: none yet). The stamp goes only on a message that carries
/// that input; ack-only and window-capped messages keep kNoInputAge.
inline void stamp_input_age(SyncMsg& msg, FrameNo newest, Time newest_start, Time now) {
  if (msg.inputs.empty() || msg.last_frame() != newest || newest_start < 0) return;
  const Dur age_us = (now - newest_start) / kMicrosecond;
  msg.input_age_us = static_cast<std::uint16_t>(
      age_us < 0 ? 0 : age_us > kMaxInputAge ? kMaxInputAge : age_us);
}

/// Receiver half: the arrival time Algorithm 4 should observe for the
/// remote watermark `watermark` that `msg` just advanced to. When the
/// watermark lands on the message's stamped newest input this is the
/// arrival time moved back by the input's age, i.e. when the message would
/// have arrived had it left as the sender's frame began; otherwise the
/// plain arrival time.
inline Time observed_input_time(const SyncMsg& msg, FrameNo watermark, Time recv_time) {
  if (msg.input_age_us == kNoInputAge || msg.inputs.empty() ||
      watermark != msg.last_frame()) {
    return recv_time;
  }
  return recv_time - Dur{msg.input_age_us} * kMicrosecond;
}

// ---- spectator / late-join extension ---------------------------------------
// The ICDCS paper's §6 defers "how to support multiple players and
// observers, how to accommodate late comers" to the journal version; these
// messages implement the observer/late-joiner part: a joining client gets
// a full machine snapshot and then a reliable feed of every merged input
// the session executes, letting it replay the game in lockstep.

/// Observer -> host: "let me watch". Repeated until a snapshot arrives.
struct JoinRequestMsg {
  std::uint64_t content_id = 0;  ///< must match the host's game image
};

/// Host -> observer: full machine state after executing `frame`.
struct SnapshotMsg {
  FrameNo frame = 0;
  std::vector<std::uint8_t> state;
};

/// Host -> observer: merged inputs for frames first_frame.. (go-back-N
/// window, resent until acked — same reliability scheme as SyncMsg).
struct InputFeedMsg {
  FrameNo first_frame = 0;
  std::vector<InputWord> inputs;
  [[nodiscard]] FrameNo last_frame() const {
    return first_frame + static_cast<FrameNo>(inputs.size()) - 1;
  }
};

/// Observer -> host: cumulative ack of snapshot + feed.
struct FeedAckMsg {
  FrameNo frame = 0;  ///< everything up to and including this is applied
};

using Message = std::variant<HelloMsg, StartMsg, SyncMsg, JoinRequestMsg, SnapshotMsg,
                             InputFeedMsg, FeedAckMsg>;

std::vector<std::uint8_t> encode_message(const Message& msg);
/// Same encoding into a caller-owned buffer (cleared, capacity kept) so
/// per-flush encoding on the hot path reuses one scratch vector.
void encode_message_into(const Message& msg, std::vector<std::uint8_t>& out);
/// Encodes a SnapshotMsg directly from borrowed state bytes — byte-for-byte
/// identical to encode_message(SnapshotMsg{frame, state}) without copying
/// the state into a message struct first (snapshots are the largest thing
/// on the wire; the broadcast hub encodes each one exactly once).
void encode_snapshot_into(FrameNo frame, std::span<const std::uint8_t> state,
                          std::vector<std::uint8_t>& out);
std::optional<Message> decode_message(std::span<const std::uint8_t> data);

}  // namespace rtct::core
