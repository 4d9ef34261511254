#include "faults/fault_injector.hpp"

#include <utility>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace causim::faults {

FaultInjector::FaultInjector(net::Transport& inner, net::TimerDriver& timer,
                             FaultPlan plan, std::uint64_t seed)
    : inner_(inner),
      timer_(timer),
      plan_(std::move(plan)),
      n_(inner.size()),
      channel_faults_(static_cast<std::size_t>(n_) * n_, plan_.default_faults),
      rng_(seed, /*stream=*/0x6661'756c'7473ULL) {
  for (const auto& [channel, faults] : plan_.channel_overrides) {
    CAUSIM_CHECK(channel.first < n_ && channel.second < n_,
                 "fault plan overrides channel (" << channel.first << ", "
                                                  << channel.second
                                                  << ") outside the cluster");
    channel_faults_[static_cast<std::size_t>(channel.first) * n_ + channel.second] = faults;
  }
  for (const PauseWindow& w : plan_.pauses) {
    CAUSIM_CHECK(w.site < inner_.size(), "pause window for site " << w.site
                                                                  << " outside the cluster");
    CAUSIM_CHECK(w.from_us <= w.to_us, "pause window ends before it starts");
  }
}

void FaultInjector::attach(SiteId site, net::PacketHandler* handler) {
  inner_.attach(site, handler);
}

SiteId FaultInjector::size() const { return inner_.size(); }

std::uint64_t FaultInjector::packets_sent() const { return inner_.packets_sent(); }

std::uint64_t FaultInjector::packets_delivered() const {
  return inner_.packets_delivered();
}

void FaultInjector::set_trace_sink(obs::TraceSink* sink) {
  {
    std::lock_guard lock(mutex_);
    trace_ = sink;
  }
  inner_.set_trace_sink(sink);
}

void FaultInjector::send(SiteId from, SiteId to, serial::Bytes bytes) {
  CAUSIM_CHECK(from < n_ && to < n_,
               "send on channel (" << from << ", " << to << ") outside the cluster");
  const ChannelFaults& faults = channel_faults_[static_cast<std::size_t>(from) * n_ + to];
  bool drop = false;
  bool dup = false;
  SimTime delay = 0;
  SimTime dup_delay = 0;
  {
    std::lock_guard lock(mutex_);
    const SimTime now = timer_.now();
    if (plan_.paused(from, now) || plan_.paused(to, now)) {
      drop = true;
    } else {
      // Fixed per-packet draw order (drop, dup, delay, dup's delay), each
      // draw gated on its fault being configured: a zero-rate channel
      // consumes no randomness, so adding a fault to one channel does not
      // reshuffle the fault sequence of the others.
      if (faults.drop_rate > 0.0) drop = rng_.bernoulli(faults.drop_rate);
      if (!drop) {
        if (faults.dup_rate > 0.0) dup = rng_.bernoulli(faults.dup_rate);
        if (faults.extra_delay_max > 0) {
          delay = rng_.uniform_int(0, faults.extra_delay_max);
          if (dup) dup_delay = rng_.uniform_int(0, faults.extra_delay_max);
        }
      }
    }
    if (drop) {
      ++drops_;
      if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.type = obs::TraceEventType::kDrop;
        e.site = from;
        e.peer = to;
        e.ts = now;
        e.b = bytes.size();
        trace_->emit(e);
      }
      return;
    }
    if (dup) ++dups_;
    if (delay > 0 || dup_delay > 0) ++delays_;
  }
  if (dup) forward(from, to, bytes, dup_delay);
  forward(from, to, std::move(bytes), delay);
}

void FaultInjector::forward(SiteId from, SiteId to, serial::Bytes bytes,
                            SimTime extra_delay) {
  if (extra_delay <= 0) {
    inner_.send(from, to, std::move(bytes));
    return;
  }
  // Under ThreadTimerDriver a pending delayed packet is discarded at
  // stop(), which is just one more drop on an already-lossy channel.
  timer_.schedule(extra_delay,
                  [this, from, to, moved = std::move(bytes)]() mutable {
                    inner_.send(from, to, std::move(moved));
                  });
}

std::uint64_t FaultInjector::drops() const {
  std::lock_guard lock(mutex_);
  return drops_;
}

std::uint64_t FaultInjector::dups() const {
  std::lock_guard lock(mutex_);
  return dups_;
}

std::uint64_t FaultInjector::delays() const {
  std::lock_guard lock(mutex_);
  return delays_;
}

void FaultInjector::export_metrics(obs::MetricsRegistry& registry) const {
  std::lock_guard lock(mutex_);
  registry.counter("faults.drop.count").add(drops_);
  registry.counter("faults.dup.count").add(dups_);
  registry.counter("faults.delay.count").add(delays_);
}

}  // namespace causim::faults
