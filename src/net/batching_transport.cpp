#include "net/batching_transport.hpp"

#include <utility>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

BatchingTransport::BatchingTransport(Transport& inner, TimerDriver& timer,
                                     const CoalesceConfig& config)
    : inner_(inner),
      timer_(timer),
      n_(inner.size()),
      channels_(timer, config, kFraming,
                std::vector<serial::Bytes>(static_cast<std::size_t>(n_) * n_),
                [this](std::size_t slot, Frame&& frame) {
                  ship(slot, std::move(frame));
                }) {
  CAUSIM_CHECK(config.enabled, "BatchingTransport built with batching off — "
                               "skip the layer instead");
  CAUSIM_CHECK(config.max_messages >= 1 && config.max_delay >= 1,
               "batch thresholds must be validated before assembly");
  handlers_.resize(n_, nullptr);
  for (SiteId i = 0; i < n_; ++i) inner_.attach(i, this);
}

void BatchingTransport::attach(SiteId site, PacketHandler* handler) {
  handlers_[site] = handler;
}

void BatchingTransport::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  inner_.set_trace_sink(sink);
}

void BatchingTransport::set_buffer_pool(serial::BufferPool* pool) {
  pool_ = pool;
  channels_.set_buffer_pool(pool);
}

void BatchingTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  {
    std::lock_guard lock(stats_mutex_);
    ++sent_;
  }
  channels_.append(static_cast<std::size_t>(from) * n_ + to, std::move(bytes));
}

void BatchingTransport::ship(std::size_t slot, Frame&& frame) {
  const auto from = static_cast<SiteId>(slot / n_);
  const auto to = static_cast<SiteId>(slot % n_);
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.type = obs::TraceEventType::kBatchFlush;
    e.site = from;
    e.peer = to;
    e.ts = timer_.now();
    e.a = frame.messages;
    e.b = frame.bytes.size();
    trace_->emit(e);
  }
  inner_.send(from, to, std::move(frame.bytes));
}

void BatchingTransport::on_packet(Packet packet) {
  PacketHandler* handler = handlers_[packet.to];
  CAUSIM_CHECK(handler != nullptr,
               "batch frame for site " << packet.to << " with no handler");
  std::uint32_t unpacked = 0;
  const bool ok = decode_frame(
      packet.bytes, kFraming,
      [](const std::uint8_t*, std::size_t) { return true; },
      [&](const std::uint8_t* data, std::size_t len) {
        // Sub-messages keep the frame's channel seq: they share its slot
        // in the per-channel FIFO, and unpack order preserves send order.
        handler->on_packet(Packet{packet.from, packet.to, packet.seq,
                                  pool_ != nullptr
                                      ? pool_->copy(data, len)
                                      : serial::Bytes(data, data + len)});
        ++unpacked;
      });
  if (!ok) {
    std::lock_guard lock(stats_mutex_);
    ++malformed_;
    return;
  }
  if (pool_ != nullptr) pool_->release(std::move(packet.bytes));
  std::lock_guard lock(stats_mutex_);
  delivered_ += unpacked;
}

std::uint64_t BatchingTransport::packets_sent() const {
  std::lock_guard lock(stats_mutex_);
  return sent_;
}

std::uint64_t BatchingTransport::packets_delivered() const {
  std::lock_guard lock(stats_mutex_);
  return delivered_;
}

bool BatchingTransport::quiescent() const {
  if (buffered_messages() != 0) return false;
  std::lock_guard lock(stats_mutex_);
  return sent_ == delivered_;
}

std::uint64_t BatchingTransport::malformed() const {
  std::lock_guard lock(stats_mutex_);
  return malformed_;
}

void BatchingTransport::export_metrics(obs::MetricsRegistry& registry) const {
  channels_.export_metrics(registry, "net.batch");
  registry.counter("net.batch.messages.count").add(messages_batched());
  registry.counter("net.batch.malformed.count").add(malformed());
}

}  // namespace causim::net
