#include "net/thread_transport.hpp"

#include <algorithm>
#include <utility>

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

// The lane this thread is running a task of (null off the pool).
thread_local const void* tl_lane = nullptr;
// The transport this thread is a worker of, and that worker's next lane.
thread_local const void* tl_pool = nullptr;
thread_local SiteId tl_next = kInvalidSite;
// Next-lane runs in a row before a worker turns to the shared queue.
constexpr unsigned kNextRuns = 3;
}  // namespace

ThreadTransport::ThreadTransport(SiteId n) : ThreadTransport(n, Options()) {}

ThreadTransport::ThreadTransport(SiteId n, Options options)
    : max_delay_us_(options.max_delay_us),
      rng_state_(options.seed == 0 ? 0x9e3779b97f4a7c15ULL : options.seed),
      last_due_(options.max_delay_us > 0 ? static_cast<std::size_t>(n) * n : 0, 0),
      channel_seq_(static_cast<std::size_t>(n) * n, 0),
      epoch_(std::chrono::steady_clock::now()) {
  lanes_.reserve(n);
  for (SiteId i = 0; i < n; ++i) lanes_.push_back(std::make_unique<Lane>());
}

void ThreadTransport::set_trace_sink(obs::TraceSink* sink) {
  std::lock_guard lock(pool_mutex_);
  CAUSIM_CHECK(!running_, "set_trace_sink after start()");
  trace_ = sink;
}

ThreadTransport::~ThreadTransport() { stop(); }

void ThreadTransport::attach(SiteId site, PacketHandler* handler) {
  CAUSIM_CHECK(site < lanes_.size(), "attach: site " << site << " out of range");
  std::lock_guard lock(pool_mutex_);
  CAUSIM_CHECK(!running_, "attach after start()");
  lanes_[site]->handler = handler;
}

void ThreadTransport::start(unsigned workers) {
  {
    std::lock_guard lock(pool_mutex_);
    CAUSIM_CHECK(!running_, "transport already started");
    running_ = true;
    if (max_delay_us_ > 0) delay_ = std::make_unique<ThreadTimerDriver>(epoch_);
  }
  const std::size_t width = workers == 0 ? lanes_.size() : workers;
  workers_.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

bool ThreadTransport::push_locked(Lane& lane, Task task) {
  lane.queue.push_back(std::move(task));
  return !std::exchange(lane.scheduled, true);
}

void ThreadTransport::make_ready(SiteId site) {
  if (tl_pool == this) {
    // A worker's own task made the lane ready (a request's target, a
    // reply's origin): it runs next on this worker, with no wake-up. The
    // lane it displaces goes to the shared queue.
    site = std::exchange(tl_next, site);
    if (site == kInvalidSite) return;
  }
  {
    std::lock_guard lock(pool_mutex_);
    ready_.push_back(site);
  }
  pool_cv_.notify_one();
}

void ThreadTransport::enqueue(SiteId site, Task task) {
  Lane& lane = *lanes_[site];
  bool wake;
  {
    std::lock_guard lock(lane.mutex);
    wake = push_locked(lane, std::move(task));
  }
  if (wake) make_ready(site);
}

void ThreadTransport::post(SiteId site, std::function<void()> task) {
  {
    std::lock_guard lock(pool_mutex_);
    CAUSIM_CHECK(running_ && !stopping_, "post on a stopped transport");
    ++pending_;
  }
  enqueue(site, Task{Packet{}, std::move(task)});
}

bool ThreadTransport::on_lane(SiteId site) const {
  return tl_lane == lanes_[site].get();
}

void ThreadTransport::send(SiteId from, SiteId to, serial::Bytes bytes) {
  CAUSIM_CHECK(to < lanes_.size() && lanes_[to]->handler != nullptr,
               "send to unattached site " << to);
  {
    std::lock_guard lock(pool_mutex_);
    CAUSIM_CHECK(running_ && !stopping_, "send on a stopped transport");
    ++pending_;
    ++sent_;
  }
  const std::size_t channel = static_cast<std::size_t>(from) * lanes_.size() + to;
  Packet p{from, to, 0, std::move(bytes)};
  const std::uint64_t packet_bytes = p.bytes.size();
  if (max_delay_us_ > 0) {
    // Due times are assigned, and the packets scheduled, under the wire
    // mutex, each clamped past the channel's previous one: the timer fires
    // in due order, so the channel stays FIFO.
    std::lock_guard lock(wire_mutex_);
    p.seq = channel_seq_[channel]++;
    const SimTime now_us = now();
    const auto jitter = static_cast<SimTime>(
        next_rand(rng_state_) % static_cast<std::uint64_t>(max_delay_us_ + 1));
    const SimTime due = std::max(now_us + jitter, last_due_[channel] + 1);
    last_due_[channel] = due;
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kWireDelay;
      e.site = from;
      e.peer = to;
      e.ts = now_us;
      e.dur = due - now_us;
      e.a = p.seq;
      e.b = packet_bytes;
      trace_->emit(e);
    }
    delay_->schedule_at(due, [this, p = std::move(p)]() mutable {
      const SiteId target = p.to;
      enqueue(target, Task{std::move(p), {}});
    });
    return;
  }
  Lane& lane = *lanes_[to];
  bool wake;
  {
    std::lock_guard lock(lane.mutex);
    p.seq = channel_seq_[channel]++;
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.type = obs::TraceEventType::kWireDelay;
      e.site = from;
      e.peer = to;
      e.ts = now();
      e.a = p.seq;
      e.b = packet_bytes;
      trace_->emit(e);
    }
    wake = push_locked(lane, Task{std::move(p), {}});
  }
  if (wake) make_ready(to);
}

void ThreadTransport::worker_loop() {
  tl_pool = this;
  unsigned next_runs = 0;
  std::unique_lock lock(pool_mutex_);
  for (;;) {
    SiteId site = std::exchange(tl_next, kInvalidSite);
    if (site != kInvalidSite && next_runs < kNextRuns) {
      ++next_runs;
    } else {
      // To the shared queue, so two sites passing requests back and forth
      // cannot keep one worker from the lanes that wait there.
      if (site != kInvalidSite) {
        ready_.push_back(site);
        pool_cv_.notify_one();
      }
      pool_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
      if (ready_.empty()) break;  // stopping and drained
      site = ready_.front();
      ready_.pop_front();
      next_runs = 0;
    }
    lock.unlock();
    run_lane(site);
    lock.lock();
  }
  tl_pool = nullptr;
}

void ThreadTransport::run_lane(SiteId site) {
  Lane& lane = *lanes_[site];
  tl_lane = &lane;
  for (;;) {
    Task task;
    {
      std::lock_guard lock(lane.mutex);
      if (lane.queue.empty()) {
        lane.scheduled = false;
        break;
      }
      task = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    if (task.posted) {
      task.posted();
    } else {
      if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.type = obs::TraceEventType::kDeliver;
        e.site = site;
        e.peer = task.packet.from;
        e.ts = now();
        e.a = task.packet.seq;
        e.b = task.packet.bytes.size();
        trace_->emit(e);
      }
      lane.handler->on_packet(std::move(task.packet));
    }
    std::lock_guard lock(pool_mutex_);
    CAUSIM_CHECK(pending_ > 0, "ran more site tasks than were queued");
    if (!task.posted) ++delivered_;
    if (--pending_ == 0) idle_cv_.notify_all();
  }
  tl_lane = nullptr;
}

void ThreadTransport::quiesce() {
  std::unique_lock lock(pool_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadTransport::stop() {
  {
    std::lock_guard lock(pool_mutex_);
    if (!running_) return;
  }
  quiesce();
  {
    std::lock_guard lock(pool_mutex_);
    stopping_ = true;
  }
  // Quiescent: the delay stage holds no packet, so stopping its timer
  // discards nothing. The timer object stays until the next start().
  if (delay_ != nullptr) delay_->stop();
  pool_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  std::lock_guard lock(pool_mutex_);
  stopping_ = false;
  running_ = false;
}

std::uint64_t ThreadTransport::packets_sent() const {
  std::lock_guard lock(pool_mutex_);
  return sent_;
}

std::uint64_t ThreadTransport::packets_delivered() const {
  std::lock_guard lock(pool_mutex_);
  return delivered_;
}

}  // namespace causim::net
