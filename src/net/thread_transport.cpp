#include "net/thread_transport.hpp"

#include <algorithm>
#include <chrono>

#include "common/panic.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace causim::net {

namespace {
// Minimal xorshift for delay jitter; ThreadTransport runs are inherently
// nondeterministic anyway, so a full PCG stream is unnecessary here.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace

ThreadTransport::ThreadTransport(SiteId n) : ThreadTransport(n, Options()) {}

ThreadTransport::ThreadTransport(SiteId n, Options options)
    : max_delay_us_(options.max_delay_us),
      rng_state_(options.seed == 0 ? 0x9e3779b97f4a7c15ULL : options.seed),
      channel_seq_(static_cast<std::size_t>(n) * n, 0),
      epoch_(std::chrono::steady_clock::now()) {
  inboxes_.reserve(n);
  for (SiteId i = 0; i < n; ++i) inboxes_.push_back(std::make_unique<Inbox>());
}

void ThreadTransport::set_trace_sink(obs::TraceSink* sink) {
  CAUSIM_CHECK(!running_, "set_trace_sink after start()");
  trace_ = sink;
}

SimTime ThreadTransport::trace_now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ThreadTransport::~ThreadTransport() { stop(); }

void ThreadTransport::attach(SiteId site, PacketHandler* handler) {
  CAUSIM_CHECK(site < inboxes_.size(), "attach: site " << site << " out of range");
  CAUSIM_CHECK(!running_, "attach after start()");
  inboxes_[site]->handler = handler;
}

void ThreadTransport::start() {
  std::lock_guard lock(state_mutex_);
  CAUSIM_CHECK(!running_, "transport already started");
  running_ = true;
  stopping_ = false;
  receivers_.reserve(inboxes_.size());
  for (SiteId i = 0; i < inboxes_.size(); ++i) {
    receivers_.emplace_back([this, i] { receipt_loop(i); });
  }
  if (max_delay_us_ > 0) {
    wire_thread_ = std::thread([this] { wire_loop(); });
  }
}

void ThreadTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  CAUSIM_CHECK(to < inboxes_.size() && inboxes_[to]->handler != nullptr,
               "send to unattached site " << to);
  {
    std::lock_guard lock(state_mutex_);
    CAUSIM_CHECK(running_ && !stopping_, "send on a stopped transport");
    ++in_flight_;
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++sent_;
  }
  const std::size_t channel = static_cast<std::size_t>(from) * inboxes_.size() + to;
  Packet p{from, to, 0, std::move(bytes)};
  const std::uint64_t packet_bytes = p.bytes.size();
  if (max_delay_us_ > 0) {
    {
      // Due times are assigned under the wire mutex so per-channel FIFO can
      // be enforced by clamping to the previous due time on the same channel.
      std::lock_guard lock(wire_mutex_);
      p.seq = channel_seq_[channel]++;
      const auto now = std::chrono::steady_clock::now();
      const std::int64_t jitter =
          static_cast<std::int64_t>(next_rand(rng_state_) % static_cast<std::uint64_t>(max_delay_us_ + 1));
      auto due = now + std::chrono::microseconds(jitter);
      // Enforce FIFO per channel: never due earlier than an earlier packet on
      // the same (from, to) channel still in the wire queue.
      for (auto it = wire_queue_.rbegin(); it != wire_queue_.rend(); ++it) {
        if (it->packet.from == p.from && it->packet.to == p.to) {
          due = std::max(due, it->due + std::chrono::microseconds(1));
          break;
        }
      }
      const SimTime held_us =
          std::chrono::duration_cast<std::chrono::microseconds>(due - now).count();
      const std::uint64_t seq = p.seq;
      TimedPacket tp{due, std::move(p)};
      const auto pos = std::upper_bound(
          wire_queue_.begin(), wire_queue_.end(), tp,
          [](const TimedPacket& a, const TimedPacket& b) { return a.due < b.due; });
      wire_queue_.insert(pos, std::move(tp));
      if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.type = obs::TraceEventType::kWireDelay;
        e.site = from;
        e.peer = to;
        e.ts = trace_now();
        e.dur = held_us;
        e.a = seq;
        e.b = packet_bytes;
        trace_->emit(e);
      }
    }
    wire_cv_.notify_one();
    return;
  }
  Inbox& inbox = *inboxes_[p.to];
  {
    std::lock_guard lock(inbox.mutex);
    p.seq = channel_seq_[channel]++;
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kWireDelay;
      e.site = from;
      e.peer = to;
      e.ts = trace_now();
      e.a = p.seq;
      e.b = packet_bytes;
      trace_->emit(e);
    }
    inbox.queue.push_back(std::move(p));
  }
  inbox.cv.notify_one();
}

void ThreadTransport::wire_loop() {
  std::unique_lock lock(wire_mutex_);
  for (;;) {
    if (wire_queue_.empty()) {
      bool should_stop;
      {
        std::lock_guard state(state_mutex_);
        should_stop = stopping_;
      }
      if (should_stop) return;
      wire_cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    const auto due = wire_queue_.front().due;
    const auto now = std::chrono::steady_clock::now();
    if (due > now) {
      wire_cv_.wait_until(lock, due);
      continue;
    }
    Packet p = std::move(wire_queue_.front().packet);
    wire_queue_.pop_front();
    lock.unlock();
    Inbox& inbox = *inboxes_[p.to];
    {
      std::lock_guard ilock(inbox.mutex);
      inbox.queue.push_back(std::move(p));
    }
    inbox.cv.notify_one();
    lock.lock();
  }
}

void ThreadTransport::receipt_loop(SiteId site) {
  Inbox& inbox = *inboxes_[site];
  for (;;) {
    Packet p;
    {
      std::unique_lock lock(inbox.mutex);
      inbox.cv.wait(lock, [&] {
        if (!inbox.queue.empty()) return true;
        std::lock_guard state(state_mutex_);
        return stopping_;
      });
      if (inbox.queue.empty()) return;  // stopping and drained
      p = std::move(inbox.queue.front());
      inbox.queue.pop_front();
      inbox.handling = true;
    }
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kDeliver;
      e.site = p.to;
      e.peer = p.from;
      e.ts = trace_now();
      e.a = p.seq;
      e.b = p.bytes.size();
      trace_->emit(e);
    }
    inbox.handler->on_packet(std::move(p));
    {
      std::lock_guard lock(inbox.mutex);
      inbox.handling = false;
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++delivered_;
    }
    {
      std::lock_guard lock(state_mutex_);
      CAUSIM_CHECK(in_flight_ > 0, "delivered more packets than were sent");
      --in_flight_;
      if (in_flight_ == 0) quiesce_cv_.notify_all();
    }
  }
}

void ThreadTransport::quiesce() {
  std::unique_lock lock(state_mutex_);
  quiesce_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadTransport::stop() {
  {
    std::lock_guard lock(state_mutex_);
    if (!running_) return;
  }
  quiesce();
  {
    std::lock_guard lock(state_mutex_);
    stopping_ = true;
  }
  for (auto& inbox : inboxes_) {
    // stopping_ is not guarded by the inbox mutex, so a receipt thread may
    // have read it as false without being asleep yet. Taking the mutex waits
    // that window out; otherwise the notify is lost and the join never ends.
    { std::lock_guard lock(inbox->mutex); }
    inbox->cv.notify_all();
  }
  wire_cv_.notify_all();
  for (auto& t : receivers_) t.join();
  receivers_.clear();
  if (wire_thread_.joinable()) wire_thread_.join();
  std::lock_guard lock(state_mutex_);
  running_ = false;
}

std::uint64_t ThreadTransport::packets_sent() const {
  std::lock_guard lock(stats_mutex_);
  return sent_;
}

std::uint64_t ThreadTransport::packets_delivered() const {
  std::lock_guard lock(stats_mutex_);
  return delivered_;
}

}  // namespace causim::net
