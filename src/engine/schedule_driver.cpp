#include "engine/schedule_driver.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/panic.hpp"
#include "net/thread_transport.hpp"
#include "obs/live/live_telemetry.hpp"
#include "sim/simulator.hpp"

namespace causim::engine {

void ScheduleDriver::execute(const workload::Schedule& schedule) {
  CAUSIM_CHECK(schedule.sites() == stack_.sites(),
               "schedule built for " << schedule.sites() << " sites, cluster has "
                                     << stack_.sites());
  executor_.play(*this, schedule);
  executor_.drain();
  // Quiescence invariants: the network drained and every delivered update
  // was applied (an unapplied pending update would mean the activation
  // predicate can never fire — a protocol bug).
  stack_.verify_quiescent();
  executor_.finish();
}

void ScheduleDriver::dispatch(SiteId s, const workload::Op& op,
                              std::function<void()> done) {
  if (hook_) {
    hook_(s, op, std::move(done));
    return;
  }
  dsm::SiteRuntime& site = stack_.site(s);
  if (op.kind == workload::Op::Kind::kWrite) {
    site.write(op.var, op.payload_bytes, op.record);
    done();
    return;
  }
  site.read(op.var, [done = std::move(done)](Value, WriteId) { done(); },
            op.record);
}

// ---------------------------------------------------------------------------

void SimExecutor::play(ScheduleDriver& driver, const workload::Schedule& schedule) {
  schedule_ = &schedule;
  cursor_.assign(stack_.sites(), 0);
  for (SiteId s = 0; s < stack_.sites(); ++s) issue_next(driver, s);
  if (stack_.config().live != nullptr &&
      stack_.config().live->sample_interval() > 0) {
    simulator_.schedule_at(simulator_.now(), [this] { sample_live(); });
  }
  simulator_.run();
  schedule_ = nullptr;
}

void SimExecutor::issue_next(ScheduleDriver& driver, SiteId s) {
  const auto& ops = schedule_->per_site[s];
  if (cursor_[s] >= ops.size()) return;  // this site's application finished
  const SimTime at = std::max(simulator_.now(), ops[cursor_[s]].at);
  simulator_.schedule_at(at, [this, &driver, s] { run_op(driver, s); });
}

void SimExecutor::run_op(ScheduleDriver& driver, SiteId s) {
  const workload::Op& op = schedule_->per_site[s][cursor_[s]];
  // Writes complete inline; remote reads resume the site's schedule from
  // the RM continuation — either way the next op is only issued after
  // `done`, which is the blocking-fetch rule.
  driver.dispatch(s, op, [this, &driver, s] {
    ++cursor_[s];
    issue_next(driver, s);
  });
}

void SimExecutor::sample_live() {
  stack_.live_sample(simulator_.now());
  // play() runs the simulator to an empty queue, so the sampler stops once
  // it is the only remaining work.
  if (!simulator_.idle()) {
    simulator_.schedule_after(stack_.config().live->sample_interval(),
                              [this] { sample_live(); });
  }
}

// ---------------------------------------------------------------------------

void ThreadExecutor::play(ScheduleDriver& driver, const workload::Schedule& schedule) {
  transport_.start();
  started_ = true;
  sampler_.start();

  std::vector<std::thread> apps;
  apps.reserve(stack_.sites());
  for (SiteId s = 0; s < stack_.sites(); ++s) {
    apps.emplace_back([this, s, &driver, &schedule] {
      SimTime prev = 0;
      for (const workload::Op& op : schedule.per_site[s]) {
        if (options_.time_scale > 0.0) {
          const auto gap = static_cast<std::int64_t>(
              static_cast<double>(op.at - prev) * options_.time_scale);
          if (gap > 0) std::this_thread::sleep_for(std::chrono::microseconds(gap));
          prev = op.at;
        }
        // One latch per op: dispatch fires `done` inline for writes and
        // local reads, from the receipt thread for remote reads.
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        // Notify *under* the mutex: the latch lives on this stack frame,
        // and the waiter may only destroy it after the signaler's last
        // touch of `cv` — which the held lock guarantees.
        driver.dispatch(s, op, [&] {
          std::lock_guard lock(m);
          done = true;
          cv.notify_one();
        });
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return done; });
      }
    });
  }
  for (auto& t : apps) t.join();
}

void drain_thread_stack(NodeStack& stack, net::ThreadTransport& wire) {
  // Shutdown order with the fault stack up: (0) the coalescing layers
  // flush every pending frame — the sites stopped sending, so after this
  // the layers below hold every message, (1) the reliability layer reaches
  // app-level quiescence (every packet delivered exactly once and acked —
  // retransmission timers still live to get it there), (2) the timer
  // stops, discarding pending callbacks (all droppable now: stale
  // retransmits, delayed duplicates, empty flushes) so nothing races the
  // transport teardown, (3) the wire drains.
  //
  // With the cross-DC gateway up, steps 0–1 loop: a mailbox can be
  // *refilled* mid-drain — an enroute frame still in flight lands at its
  // gateway after the flush, and an FM fanned out of a mailbox triggers an
  // RM reply that enters a fresh one. Each pass strictly moves messages
  // down the stack and the senders have stopped, so the loop terminates
  // once the last reply made it through.
  do {
    if (stack.gateway() != nullptr) stack.gateway()->flush_all();
    if (stack.batching() != nullptr) stack.batching()->flush_all();
    if (stack.reliable() != nullptr) stack.reliable()->wait_quiescent();
    if (stack.gateway() != nullptr) wire.quiesce();
  } while (stack.gateway() != nullptr && !stack.gateway()->quiescent());
  if (stack.timer() != nullptr) stack.timer()->stop();
  wire.quiesce();
}

void LiveSamplerThread::start() {
  obs::live::LiveTelemetry* live = stack_.config().live;
  if (live == nullptr || live->sample_interval() <= 0) return;
  stop_ = false;
  thread_ = std::thread([this, live] {
    const auto period = std::chrono::microseconds(live->sample_interval());
    std::unique_lock lock(mutex_);
    while (!stop_) {
      lock.unlock();
      // The stack snapshots under per-site locks; there is no engine clock
      // under threads, so the telemetry's steady clock stamps the tick.
      stack_.live_sample(live->wall_now());
      lock.lock();
      cv_.wait_for(lock, period, [this] { return stop_; });
    }
  });
}

void LiveSamplerThread::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void ThreadExecutor::drain() { drain_thread_stack(stack_, transport_); }

void ThreadExecutor::finish() {
  sampler_.stop();
  transport_.stop();
  started_ = false;
}

void ThreadExecutor::abort() {
  if (!started_) return;
  sampler_.stop();
  if (stack_.timer() != nullptr) stack_.timer()->stop();
  transport_.stop();
  started_ = false;
}

}  // namespace causim::engine
