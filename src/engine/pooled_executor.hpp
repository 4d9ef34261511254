// PooledExecutor — N sites multiplexed over a fixed pool of W workers.
//
// ThreadExecutor's one-thread-per-site design faithfully models the
// paper's testbed but caps how many sites a thread run can sweep: at
// n = 128 the OS is scheduling 128 application threads plus the receipt
// threads. PaRiS/Okapi-style deployments instead multiplex many
// partitions over fixed server resources; this executor reproduces that
// regime with an action-queue/invoker architecture:
//
//   * a shared ready queue holds sites with runnable work,
//   * W pool workers pop a site and run its schedule ops until one blocks
//     (a RemoteFetch in flight) or the site finishes,
//   * per-site invokers are serialized by an atomic completion gate, so a
//     SiteRuntime never runs concurrently with itself — the same
//     exclusion the per-site design gets from having only one thread —
//     while different sites run genuinely in parallel,
//   * a blocked site consumes no worker: the RM completion callback
//     (receipt-thread context) re-enqueues it, and the worker has long
//     moved on to another site.
//
// The completion gate is the whole trick. dispatch()'s `done` may fire
// inline (writes, local reads) or later from a receipt thread (remote
// reads), and the two sides race. Both the dispatching worker and the
// callback fetch_add the gate; whoever arrives *second* (reads 1) owns
// the site's continuation — advance the cursor and either keep running
// inline or push the site back on the ready queue. Exactly one side
// continues, the blocking-fetch rule holds, and no latch or per-op
// condvar is needed.
//
// The pooled substrate runs at full throughput: schedule gaps (op.at) and
// ThreadExecutor's time_scale are ignored — this is the msgs/sec-ceiling
// lane, not the latency-modelling one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/schedule_driver.hpp"

namespace causim::engine {

class PooledExecutor final : public Executor {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread (at least 1).
    unsigned workers = 0;
  };

  PooledExecutor(NodeStack& stack, net::ThreadTransport& transport,
                 Options options);
  ~PooledExecutor() override;

  PooledExecutor(const PooledExecutor&) = delete;
  PooledExecutor& operator=(const PooledExecutor&) = delete;

  void play(ScheduleDriver& driver, const workload::Schedule& schedule) override;
  void drain() override;
  void finish() override;

  /// Stops the pool, the timer and the transport so no background thread
  /// outlives the stack (see Executor::abort). Safe to call concurrently
  /// with a play() in flight — sites abandon their remaining ops and
  /// play() returns; tests/test_pooled_executor.cpp races this against
  /// live traffic deliberately.
  void abort() override;

  /// The resolved pool width.
  unsigned workers() const { return workers_target_; }

 private:
  /// Per-site invoker state. The gate implements the exactly-once
  /// continuation handoff described above; the cursor is only ever
  /// touched by the gate winner, so it needs no lock of its own.
  struct SiteState {
    std::size_t cursor = 0;
    std::atomic<int> gate{0};
  };

  void worker_loop();
  /// Runs ops of `s` until it blocks or finishes (worker context).
  void run_site(SiteId s);
  /// dispatch() completion for site `s` (any context).
  void complete(SiteId s);
  void enqueue(SiteId s);
  void site_finished();
  void stop_workers();

  NodeStack& stack_;
  net::ThreadTransport& transport_;
  const unsigned workers_target_;

  ScheduleDriver* driver_ = nullptr;
  const workload::Schedule* schedule_ = nullptr;
  std::unique_ptr<SiteState[]> sites_;
  std::atomic<std::size_t> live_sites_{0};

  /// Guards ready_/stop_ and orders the condvar handshakes.
  std::mutex mutex_;
  std::condition_variable cv_;       // workers: ready work or stop
  std::condition_variable done_cv_;  // play(): all sites done or stop
  std::deque<SiteId> ready_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;

  /// Serializes play() startup against abort()/finish() teardown, so an
  /// abort racing a starting run sees either "not started" or the fully
  /// assembled pool — never a half-spawned worker vector.
  std::mutex life_mutex_;
  bool started_ = false;

  LiveSamplerThread sampler_;
};

}  // namespace causim::engine
