#include "net/coalescer.hpp"

#include <algorithm>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"

namespace causim::net {

// ---------------------------------------------------------------------------
// Coalescer

Coalescer::Coalescer(const Framing& framing, const serial::Bytes& header,
                     std::uint32_t max_messages)
    : head_(1 + header.size(), framing.tag), max_messages_(max_messages) {
  CAUSIM_CHECK(header.size() == framing.header_bytes,
               "frame header of " << header.size() << " bytes, framing expects "
                                  << framing.header_bytes);
  std::copy(header.begin(), header.end(), head_.begin() + 1);
}

std::optional<Frame> Coalescer::append(serial::Bytes&& payload,
                                       std::span<const std::uint8_t> prefix) {
  if (pending_messages_ == 0) {
    pending_ = pool_ != nullptr ? pool_->acquire() : serial::Bytes{};
    pending_.insert(pending_.end(), head_.begin(), head_.end());
    pending_.resize(head_.size() + 4, 0);  // count, patched at flush time
  }
  const auto len = static_cast<std::uint32_t>(prefix.size() + payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    pending_.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  pending_.insert(pending_.end(), prefix.begin(), prefix.end());
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  if (pool_ != nullptr) pool_->release(std::move(payload));
  ++pending_messages_;
  if (pending_messages_ >= max_messages_) return flush(Flush::kCount);
  if (pending_.size() >= kFlushBytes) return flush(Flush::kSize);
  return std::nullopt;
}

std::optional<Frame> Coalescer::flush(Flush reason) {
  if (pending_messages_ == 0) return std::nullopt;
  const std::uint32_t count = pending_messages_;
  for (std::size_t i = 0; i < 4; ++i) {
    pending_[head_.size() + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  Frame frame;
  frame.bytes = std::move(pending_);
  frame.reason = reason;
  frame.messages = count;
  pending_ = serial::Bytes{};
  pending_messages_ = 0;
  ++frames_;
  messages_ += count;
  ++flushes_[static_cast<std::size_t>(reason)];
  return frame;
}

// ---------------------------------------------------------------------------
// CoalescerTable

CoalescerTable::CoalescerTable(TimerDriver& timer, const CoalesceConfig& config,
                               const Framing& framing,
                               const std::vector<serial::Bytes>& headers,
                               Ship ship)
    : timer_(timer), max_delay_(config.max_delay), ship_(std::move(ship)) {
  slots_.reserve(headers.size());
  for (const serial::Bytes& header : headers) {
    slots_.push_back(std::make_unique<Slot>(
        Coalescer(framing, header, config.max_messages)));
  }
}

void CoalescerTable::set_buffer_pool(serial::BufferPool* pool) {
  for (auto& slot : slots_) slot->coalescer.set_buffer_pool(pool);
}

void CoalescerTable::append(std::size_t slot, serial::Bytes&& payload,
                            std::span<const std::uint8_t> prefix) {
  Slot& s = *slots_[slot];
  std::lock_guard lock(s.mutex);
  std::optional<Frame> frame = s.coalescer.append(std::move(payload), prefix);
  if (frame.has_value()) {
    ship_(slot, std::move(*frame));
    return;
  }
  if (!s.timer_armed) {
    s.timer_armed = true;
    timer_.schedule(max_delay_, [this, slot] { on_timer(slot); });
  }
}

void CoalescerTable::on_timer(std::size_t slot) {
  Slot& s = *slots_[slot];
  std::lock_guard lock(s.mutex);
  s.timer_armed = false;
  std::optional<Frame> frame = s.coalescer.flush(Flush::kTimer);
  if (frame.has_value()) ship_(slot, std::move(*frame));
}

void CoalescerTable::flush_all() {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    Slot& s = *slots_[slot];
    std::lock_guard lock(s.mutex);
    std::optional<Frame> frame = s.coalescer.flush(Flush::kForced);
    if (frame.has_value()) ship_(slot, std::move(*frame));
  }
}

template <typename Fn>
std::uint64_t CoalescerTable::sum(Fn fn) const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    std::lock_guard lock(slot->mutex);
    total += fn(slot->coalescer);
  }
  return total;
}

std::uint64_t CoalescerTable::frames() const {
  return sum([](const Coalescer& c) { return c.frames(); });
}

std::uint64_t CoalescerTable::messages() const {
  return sum([](const Coalescer& c) { return c.messages(); });
}

std::uint64_t CoalescerTable::flushes(Flush reason) const {
  return sum([reason](const Coalescer& c) { return c.flushes(reason); });
}

std::uint64_t CoalescerTable::buffered_messages() const {
  return sum([](const Coalescer& c) { return c.buffered_messages(); });
}

void CoalescerTable::export_metrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  const std::uint64_t frame_count = frames();
  const std::uint64_t message_count = messages();
  registry.counter(prefix + ".frames.count").add(frame_count);
  registry.counter(prefix + ".flush_count.count").add(flushes(Flush::kCount));
  registry.counter(prefix + ".flush_size.count").add(flushes(Flush::kSize));
  registry.counter(prefix + ".flush_timer.count").add(flushes(Flush::kTimer));
  registry.counter(prefix + ".flush_forced.count").add(flushes(Flush::kForced));
  registry.gauge(prefix + ".avg_messages_per_frame")
      .set(frame_count == 0 ? 0.0
                            : static_cast<double>(message_count) /
                                  static_cast<double>(frame_count));
}

}  // namespace causim::net
