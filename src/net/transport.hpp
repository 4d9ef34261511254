// Transport — the reliable FIFO message-passing substrate of §II-B.
//
// The paper's underlying system is "reliable distributed asynchronous
// message passing … connected by FIFO channels" (realized there as TCP).
// causim provides two interchangeable implementations:
//   * SimTransport    — deterministic discrete-event delivery (default),
//   * ThreadTransport — real threads: per-site FIFO lanes on a worker pool.
// Protocol and runtime code is written only against this interface, so the
// test suite can assert both substrates produce equivalent executions.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "serial/writer.hpp"

namespace causim::obs {
class TraceSink;
}  // namespace causim::obs

namespace causim::net {

/// A fully serialized message in flight.
struct Packet {
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  /// Position on the (from, to) FIFO channel, assigned by the transport at
  /// send time (0, 1, 2, …). Lets trace consumers pair each kWireDelay with
  /// its kDeliver and assert per-channel ordering.
  std::uint64_t seq = 0;
  serial::Bytes bytes;
};

/// Receiver callback, one per site. Implementations must tolerate being
/// called from the transport's delivery context: the simulator loop, or a
/// ThreadTransport pool worker. The pool runs one task of a site at a
/// time, but a decorator may hand a site packets from another site's task
/// (the gateway's mailbox fan-out does), so handlers stay thread-safe.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void on_packet(Packet packet) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers the handler for packets addressed to `site`.
  /// Must be called for every site before the first send.
  virtual void attach(SiteId site, PacketHandler* handler) = 0;

  /// Queues `bytes` from `from` to `to`. Delivery is reliable and FIFO per
  /// (from, to) channel; cross-channel order is arbitrary.
  virtual void send(SiteId from, SiteId to, serial::Bytes bytes) = 0;

  /// Number of sites.
  virtual SiteId size() const = 0;

  /// Total packets handed to send() so far (for conservation checks).
  virtual std::uint64_t packets_sent() const = 0;
  /// Total packets delivered to handlers so far.
  virtual std::uint64_t packets_delivered() const = 0;

  /// Attaches a trace sink receiving kWireDelay/kDeliver events (nullptr
  /// detaches; the default transport ignores the call). The sink must
  /// outlive the transport or be detached before destruction.
  virtual void set_trace_sink(obs::TraceSink* sink) { (void)sink; }
};

}  // namespace causim::net
