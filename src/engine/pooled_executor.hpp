// PooledExecutor — the real-thread executor: N sites multiplexed over the
// W workers of the ThreadTransport's pool.
//
// The transport is the only scheduler on the thread substrate: each site
// has one lane of tasks (packet deliveries and op runs) that the pool runs
// one at a time, in FIFO order. This executor adds what schedule execution
// needs on top, in the PaRiS/Okapi "many partitions per server" shape:
//
//   * play() posts one op run per site; a run issues the site's schedule
//     ops until one blocks (a RemoteFetch in flight) or the site finishes,
//   * a blocked site consumes no worker, and it keeps receiving: parking
//     stops op issue, not deliveries,
//   * the RM that completes the read continues the site on the worker that
//     delivered it (or posts a run when `done` fires off the pool).
//
// The completion gate is the whole trick. dispatch()'s `done` may fire
// inline (writes, local reads) or later (remote reads, or a dispatch hook
// that finishes the op on another thread), and the two sides may race.
// Both the dispatching worker and the callback fetch_add the gate; whoever
// arrives *second* (reads 1) owns the site's continuation — advance the
// cursor and keep running the site. Exactly one side continues, the
// blocking-fetch rule holds, and no latch or per-op condvar is needed.
//
// ExecutorKind::kPerSite is this executor with one worker per site. Runs
// go at full throughput: schedule gaps (op.at) are ignored — this is the
// msgs/sec-ceiling lane, not the latency-modelling one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>

#include "engine/schedule_driver.hpp"
#include "net/timer.hpp"

namespace causim::net {
class ThreadTransport;
}  // namespace causim::net

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

  /// The shutdown ladder, once every site finished: flush the gateway
  /// mailboxes and the batch frames, wait for the reliability layer's
  /// quiescence (looping while a mailbox refills), stop the timer, drain
  /// the wire.
  void drain() override;
  void finish() override;

  /// Stops the sites, the timer and the transport so no background thread
  /// outlives the stack (see Executor::abort). Safe to call concurrently
  /// with a play() in flight — sites abandon their remaining ops, the pool
  /// delivers what is already queued, and play() returns;
  /// tests/test_pooled_executor.cpp races this against live traffic
  /// deliberately.
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

  /// Runs ops of `s` until it blocks or finishes (on `s`'s lane).
  void run_site(SiteId s);
  /// dispatch() completion for site `s` (any context).
  void complete(SiteId s);
  void site_finished();

  /// The live time-series sampler: a ThreadTimerDriver on the transport's
  /// clock ticks NodeStack::live_sample every
  /// LiveTelemetry::sample_interval µs, stamping each tick with
  /// ThreadTransport::now(), the clock the sites stamp their events with.
  /// start_sampler() is a no-op without a live tracker or with a zero
  /// interval; stop_sampler() joins the timer before releasing it and is
  /// idempotent.
  void start_sampler();
  void sample();
  void stop_sampler();

  NodeStack& stack_;
  net::ThreadTransport& transport_;
  const unsigned workers_target_;

  ScheduleDriver* driver_ = nullptr;
  const workload::Schedule* schedule_ = nullptr;
  std::unique_ptr<SiteState[]> sites_;
  std::atomic<std::size_t> live_sites_{0};

  /// Orders the done_cv_ handshake.
  std::mutex mutex_;
  std::condition_variable done_cv_;  // play(): all sites done or stop
  std::atomic<bool> stop_{false};
  std::unique_ptr<net::ThreadTimerDriver> sampler_;

  /// Serializes play() startup against abort()/finish() teardown, so an
  /// abort racing a starting run sees either "not started" or the fully
  /// started pool.
  std::mutex life_mutex_;
  bool started_ = false;
};

}  // namespace causim::engine
