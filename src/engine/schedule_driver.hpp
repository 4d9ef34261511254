// ScheduleDriver — the one implementation of the paper's schedule
// execution semantics (§II-B), parameterized over the execution substrate.
//
// Both clusters used to re-implement the same contract: each site issues
// its scheduled operations in order and never starts the next operation
// while a RemoteFetch is outstanding (the fetch primitive blocks). The
// driver owns that contract in dispatch(); an Executor supplies only the
// substrate mechanics — how ops are scheduled in time, how the network is
// drained, how the substrate shuts down. SimExecutor replays the schedule
// as simulator events (deterministic, continuation-driven); PooledExecutor
// (pooled_executor.hpp) runs each site's ops as tasks on the thread
// substrate's worker pool.
#pragma once

#include <functional>
#include <vector>

#include "engine/node_stack.hpp"
#include "workload/schedule.hpp"

namespace causim::sim {
class Simulator;
}  // namespace causim::sim

namespace causim::engine {

class ScheduleDriver;

/// The substrate half of schedule execution. execute() drives the phases
/// in order: play (run every site's schedule to application completion),
/// drain (bring the network to quiescence), then — after the shared
/// quiescence invariants pass — finish (substrate teardown).
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void play(ScheduleDriver& driver, const workload::Schedule& schedule) = 0;
  virtual void drain() = 0;
  virtual void finish() = 0;

  /// Emergency teardown for destruction mid-run (an exception unwound past
  /// execute(), or a deliberate mid-run stop): no background thread may
  /// outlive the stack. Idempotent; a no-op for substrates with nothing to
  /// tear down (SimExecutor) and after a completed finish().
  virtual void abort() {}
};

class ScheduleDriver {
 public:
  ScheduleDriver(NodeStack& stack, Executor& executor)
      : stack_(stack), executor_(executor) {}

  /// Plays the schedule to completion, verifies the shared quiescence
  /// invariants (NodeStack::verify_quiescent), and tears the substrate
  /// down.
  void execute(const workload::Schedule& schedule);

  /// The op semantics, shared by every executor: a write multicasts and
  /// completes inline (`done` runs before returning); a read completes
  /// inline when local and on RM arrival when remote — either way `done`
  /// fires exactly once, and the executor must not start the site's next
  /// op before it does (the blocking-fetch rule).
  void dispatch(SiteId s, const workload::Op& op, std::function<void()> done);

  /// Optional interceptor for layers built above the raw DSM ops: when
  /// set, dispatch() hands the op to the hook instead of issuing the
  /// site-runtime read/write itself (the KV front-end routes schedule
  /// slots through client sessions this way). The hook inherits the full
  /// dispatch contract — invoke `done` exactly once, after the op (and
  /// anything the layer adds, e.g. freshness retries) completed — and the
  /// executors' ordering guarantee holds unchanged: a site's ops reach
  /// the hook one at a time, in schedule order, on every substrate.
  /// Install before execute(); the empty default keeps the closed
  /// schedule path byte-identical.
  using DispatchHook =
      std::function<void(SiteId, const workload::Op&, std::function<void()>)>;
  void set_dispatch_hook(DispatchHook hook) { hook_ = std::move(hook); }

  NodeStack& stack() { return stack_; }

 private:
  NodeStack& stack_;
  Executor& executor_;
  DispatchHook hook_;
};

/// Discrete-event substrate: ops become simulator events at
/// max(now, op.at); remote-read continuations re-enter the per-site
/// cursor, preserving the exact event ordering the pre-engine Cluster
/// produced (runs are byte-identical for a fixed seed). The simulator
/// running to an empty queue is already the drain.
class SimExecutor final : public Executor {
 public:
  SimExecutor(NodeStack& stack, sim::Simulator& simulator)
      : stack_(stack), simulator_(simulator) {}

  void play(ScheduleDriver& driver, const workload::Schedule& schedule) override;
  void drain() override {}
  void finish() override {}

 private:
  // The op-issue and completion actions capture only (this, site), so
  // std::function stores them inline: playing an op allocates nothing.
  void issue_next(SiteId s);
  void run_op(SiteId s);
  void sample_live();

  NodeStack& stack_;
  sim::Simulator& simulator_;
  ScheduleDriver* driver_ = nullptr;  // set for the duration of play()
  const workload::Schedule* schedule_ = nullptr;
  std::vector<std::size_t> cursor_;
};

}  // namespace causim::engine
