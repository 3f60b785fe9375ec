// Point-to-point datagram transport abstraction.
//
// The sync protocol (src/core) is sans-IO: it only ever asks a transport to
// ship an opaque datagram to "the peer" and to hand back whatever datagrams
// have arrived. Two implementations exist — SimEndpoint (virtual time +
// Netem model) and UdpSocket (real Berkeley sockets) — and the identical
// protocol bytes flow through both.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace rtct {
class MetricsRegistry;  // src/common/telemetry.h
}  // namespace rtct

namespace rtct::net {

using Payload = std::vector<std::uint8_t>;

class DatagramTransport {
 public:
  virtual ~DatagramTransport() = default;

  /// Fire-and-forget datagram to the connected peer. May be dropped,
  /// duplicated, delayed or reordered by the path — exactly UDP semantics.
  virtual void send(std::span<const std::uint8_t> payload) = 0;

  /// Pops the next arrived datagram, or nullopt if none is pending.
  virtual std::optional<Payload> try_recv() = 0;
};

/// A DatagramTransport the wall-clock driver (RealtimeSession) can block
/// on. Implemented by the raw UdpSocket (direct peer-to-peer) and by
/// RelayEndpoint (the same protocol bytes framed through rtct_relayd), so
/// the frame loop is indifferent to whether a relay sits on the path.
class PollableTransport : public DatagramTransport {
 public:
  /// Blocks up to `timeout` for a datagram to become readable. True when
  /// try_recv() has something to consume, so a caller drains only then.
  virtual bool wait_readable(Dur timeout) = 0;

  [[nodiscard]] virtual bool valid() const = 0;
  [[nodiscard]] virtual const std::string& last_error() const = 0;

  /// Snapshots transport counters into the registry.
  virtual void export_metrics(MetricsRegistry& reg) const = 0;
};

}  // namespace rtct::net
