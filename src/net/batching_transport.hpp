// BatchingTransport — per-channel message coalescing at the transport edge.
//
// Per-message overhead dominates the thread-path wire: every protocol
// message pays its own Envelope header plus — with the fault stack up — a
// ReliableChannel DATA frame, an ACK, and a retransmission-timer slot.
// PaRiS/Okapi-style deployments amortize that by batching cross-replica
// traffic; this layer does the same. Senders keep writing one message per
// send(), but each (from, to) channel's payloads accumulate in one slot of
// a CoalescerTable (net/coalescer.hpp) and ship to the inner transport as a
// single 0xB4 batch frame when a threshold trips. The receiving side splits
// the frame and delivers the sub-messages in order, so per-channel FIFO is
// preserved end to end — messages only ever travel in batches that were
// formed in send order and are unpacked in frame order.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/ids.hpp"
#include "net/coalescer.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "serial/buffer_pool.hpp"

namespace causim::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace causim::obs

namespace causim::net {

/// Transport decorator batching each (from, to) channel's sends into
/// coalesced frames. packets_sent()/packets_delivered() count app-level
/// messages (one per outer send / one per handler invocation), so the
/// cluster quiescence invariant "sent == delivered" keeps holding above
/// the batching boundary while the inner transport sees only frames.
class BatchingTransport final : public Transport, public PacketHandler {
 public:
  /// Batch frames carry no header; each entry is one message payload.
  static constexpr Framing kFraming{0xB4, 0};

  /// Attaches itself as the inner transport's handler for every site, so
  /// construct the stack bottom-up and attach the real handlers here.
  BatchingTransport(Transport& inner, TimerDriver& timer,
                    const CoalesceConfig& config);

  void attach(SiteId site, PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return inner_.size(); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;
  /// Keeps the sink for kBatchFlush events and forwards it down the stack.
  void set_trace_sink(obs::TraceSink* sink) override;

  /// Wires `pool` into every per-channel slot and recycles consumed batch
  /// frames through it. Call before the first send; null disables pooling
  /// (the default).
  void set_buffer_pool(serial::BufferPool* pool);

  void on_packet(Packet packet) override;

  /// Flushes every channel's pending frame. Executors call this at the
  /// start of drain — all senders have stopped, so afterwards every
  /// message is in the inner transport and the layers below can be waited
  /// on as usual.
  void flush_all() { channels_.flush_all(); }

  /// Nothing buffered and every accepted message delivered.
  bool quiescent() const;

  // -- whole-layer counters (summed over channels) --
  std::uint64_t frames_sent() const { return channels_.frames(); }
  std::uint64_t messages_batched() const { return channels_.messages(); }
  std::uint64_t flushes(Flush reason) const { return channels_.flushes(reason); }
  /// Wire frames dropped as syntactically invalid instead of crashing.
  std::uint64_t malformed() const;
  std::uint64_t buffered_messages() const {
    return channels_.buffered_messages();
  }

  /// Folds the layer's counters into `registry` under net.batch.* —
  /// disjoint from both msg.* and net.reliable.*.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Ships channel `slot` = from * n + to on the inner transport and traces
  /// the flush.
  void ship(std::size_t slot, Frame&& frame);

  Transport& inner_;
  TimerDriver& timer_;
  const SiteId n_;
  CoalescerTable channels_;
  std::vector<PacketHandler*> handlers_;

  mutable std::mutex stats_mutex_;
  std::uint64_t sent_ = 0;       // app-level messages accepted by send()
  std::uint64_t delivered_ = 0;  // app-level messages handed to handlers
  std::uint64_t malformed_ = 0;

  obs::TraceSink* trace_ = nullptr;
  serial::BufferPool* pool_ = nullptr;
};

}  // namespace causim::net
