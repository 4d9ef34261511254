// Cluster — an n-site causal DSM instance over the discrete-event
// simulator.
//
// The cluster supplies the substrate-specific edges (SimTransport, the
// simulator clock, SimTimerDriver) and delegates everything else to the
// engine layer: engine::NodeStack assembles the per-site stack (placement,
// fault stack, runtimes, frame pool, observability wiring) and
// engine::ScheduleDriver + SimExecutor play a workload Schedule exactly as
// the paper's testbed does — each site issues its scheduled operations in
// order, never starting the next operation while a RemoteFetch is
// outstanding (the fetch primitive blocks, §II-B).
#pragma once

#include <memory>

#include "checker/causal_checker.hpp"
#include "checker/history.hpp"
#include "dsm/placement.hpp"
#include "dsm/site_runtime.hpp"
#include "engine/config.hpp"
#include "engine/node_stack.hpp"
#include "engine/schedule_driver.hpp"
#include "faults/fault_injector.hpp"
#include "net/reliable_channel.hpp"
#include "net/sim_transport.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "stats/message_stats.hpp"
#include "workload/schedule.hpp"

namespace causim::dsm {

/// The cluster description lives in the engine layer (the one validated
/// config both substrates assemble from); the alias keeps every existing
/// caller compiling unchanged.
using ClusterConfig = engine::EngineConfig;

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  SiteId sites() const { return config_.sites; }
  const ClusterConfig& config() const { return config_; }
  const Placement& placement() const { return stack_->placement(); }
  SiteRuntime& site(SiteId i) { return stack_->site(i); }
  const SiteRuntime& site(SiteId i) const { return stack_->site(i); }
  sim::Simulator& simulator() { return simulator_; }
  /// The assembled per-site stack (fault layers, runtimes, frame pool).
  engine::NodeStack& stack() { return *stack_; }
  /// The wire-level transport (frame counts under the fault stack).
  net::Transport& transport() { return *transport_; }
  /// The transport the sites actually talk to: the reliability layer when
  /// the fault stack is up, otherwise the wire itself.
  net::Transport& edge() { return stack_->edge(); }
  /// Non-null while the fault stack is wired in.
  const faults::FaultInjector* injector() const { return stack_->injector(); }
  const net::ReliableTransport* reliable() const { return stack_->reliable(); }

  /// The schedule-execution driver (hook installation point for layers
  /// above the raw DSM ops — see ScheduleDriver::set_dispatch_hook).
  engine::ScheduleDriver& driver() { return *driver_; }

  /// Plays the schedule to completion and verifies the network drained and
  /// every received update was applied.
  void execute(const workload::Schedule& schedule);

  /// Runs all currently queued simulator work (for hand-driven scenarios
  /// such as the examples: write, settle, read).
  void settle() { simulator_.run(); }

  stats::MessageStats aggregate_message_stats() const;
  stats::Summary aggregate_log_entries() const;
  stats::Summary aggregate_fetch_latency() const;
  stats::Summary aggregate_apply_delay() const;
  std::uint64_t total_applies() const;

  /// Folds every site's observability instruments into `registry`
  /// (see SiteRuntime::export_metrics for the metric catalogue).
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Runs the causal checker over the recorded history.
  checker::CheckResult check(checker::CheckOptions options = {}) const;
  const checker::HistoryRecorder& history() const { return stack_->history(); }

 private:
  ClusterConfig config_;
  sim::Simulator simulator_;
  sim::UniformLatency latency_;
  /// The per-scope composite when the config carries a topology (owned
  /// here — the transport keeps a reference for the run's lifetime).
  std::shared_ptr<const sim::LatencyModel> scoped_latency_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<engine::NodeStack> stack_;
  std::unique_ptr<engine::SimExecutor> executor_;
  std::unique_ptr<engine::ScheduleDriver> driver_;
};

}  // namespace causim::dsm
