// NodeStack — the single per-cluster stack assembly.
//
// Both execution substrates (the discrete-event dsm::Cluster and the
// real-thread dsm::ThreadCluster) need exactly the same tower per run:
//
//   wire -> [FaultInjector] -> [ReliableTransport] -> [BatchingTransport]
//        -> [GatewayMailbox] -> SiteRuntime x n
//
// plus placement, the history recorder, the shared frame pool, and the
// observability wiring (trace sinks down the stack, metrics folds up).
// They differ only in the substrate-specific edges — which wire, which
// TimerDriver, what "now" means — so NodeStack takes those three things as
// a Wiring and owns everything else. Each substrate has one clock: the
// simulator's, or the thread transport's, which its timers read too. The
// clusters keep their public accessors by delegating here; no
// fault/reliability construction remains in dsm/.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/history.hpp"
#include "dsm/placement.hpp"
#include "dsm/site_runtime.hpp"
#include "engine/config.hpp"
#include "faults/fault_injector.hpp"
#include "net/batching_transport.hpp"
#include "net/gateway_mailbox.hpp"
#include "net/reliable_channel.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "serial/buffer_pool.hpp"
#include "stats/message_stats.hpp"

namespace causim::engine {

class NodeStack {
 public:
  /// The substrate-specific edges. `wire` is the bottom transport
  /// (SimTransport or ThreadTransport), owned by the caller and outliving
  /// the stack. `make_timer` is invoked at most once, only when a fault
  /// plan, the reliable channel, batching or a multi-cell topology asks
  /// for a timer-driven layer. `now_fn` is the substrate's clock
  /// (Simulator::now or ThreadTransport::now, the one the timer reads),
  /// handed to every SiteRuntime for fetch latency, activation delay and
  /// trace timestamps. It may be empty only without a live tracker: sites
  /// then measure no latency and stamp their events 0.
  struct Wiring {
    net::Transport* wire = nullptr;
    std::function<std::unique_ptr<net::TimerDriver>()> make_timer;
    std::function<SimTime()> now_fn;
  };

  /// Validates `config` (see validate_or_panic) and assembles the tower
  /// bottom-up. Trace sink and frame pool are wired before any traffic can
  /// flow.
  NodeStack(const EngineConfig& config, Wiring wiring);

  const EngineConfig& config() const { return config_; }
  SiteId sites() const { return config_.sites; }
  const dsm::Placement& placement() const { return placement_; }
  dsm::SiteRuntime& site(SiteId i) { return *runtimes_[i]; }
  const dsm::SiteRuntime& site(SiteId i) const { return *runtimes_[i]; }

  /// The wire-level transport (frame counts under the fault stack).
  net::Transport& wire() { return *wire_; }
  /// The transport the sites actually talk to: the reliability layer when
  /// the fault stack is up, otherwise the wire itself.
  net::Transport& edge() { return *edge_; }
  /// Non-null while the fault stack is wired in.
  const faults::FaultInjector* injector() const { return injector_.get(); }
  net::ReliableTransport* reliable() { return reliable_.get(); }
  const net::ReliableTransport* reliable() const { return reliable_.get(); }
  /// Non-null when EngineConfig::batch.enabled wired the coalescing layer
  /// in (the topmost transport decorator — sites send through it).
  net::BatchingTransport* batching() { return batching_.get(); }
  const net::BatchingTransport* batching() const { return batching_.get(); }
  /// Non-null when a multi-cell topology wired the cross-DC gateway layer
  /// in (above batching — the topmost transport decorator then).
  net::GatewayMailbox* gateway() { return gateway_.get(); }
  const net::GatewayMailbox* gateway() const { return gateway_.get(); }
  net::TimerDriver* timer() { return timer_.get(); }

  /// The shared frame pool every layer encodes into / recycles through.
  serial::BufferPool& buffer_pool() { return pool_; }

  const checker::HistoryRecorder& history() const { return history_; }

  /// One live time-series tick (no-op without EngineConfig::live): polls
  /// every site's LiveSample, the wire's in-flight count and the
  /// reliability layer's counters, and hands the lot to
  /// LiveTelemetry::record_sample. `now` stamps the timeseries row and
  /// every site's kTimeSample event alike; the samplers pass the stack
  /// clock (Simulator::now, ThreadTransport::now).
  void live_sample(SimTime now);

  /// The post-run quiescence invariants, shared verbatim by both
  /// substrates: the wire drained, the reliability layer (when up)
  /// delivered every app-level packet exactly once, and no site holds
  /// unapplied updates, unanswered fetches, or held fetch requests.
  /// Panics with the failing site/layer on violation.
  void verify_quiescent() const;

  // ---- statistics / observability folds ----

  stats::MessageStats aggregate_message_stats() const;
  stats::Summary aggregate_log_entries() const;
  stats::Summary aggregate_fetch_latency() const;
  stats::Summary aggregate_apply_delay() const;
  std::uint64_t total_applies() const;

  /// Folds every site's instruments — plus the reliability layer's and the
  /// injector's when present — into `registry`.
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Runs the causal checker over the recorded history.
  checker::CheckResult check(checker::CheckOptions options = {}) const;

 private:
  EngineConfig config_;
  dsm::Placement placement_;
  net::Transport* wire_ = nullptr;
  std::unique_ptr<net::TimerDriver> timer_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<net::ReliableTransport> reliable_;
  std::unique_ptr<net::BatchingTransport> batching_;
  std::unique_ptr<net::GatewayMailbox> gateway_;
  net::Transport* edge_ = nullptr;
  serial::BufferPool pool_;
  checker::HistoryRecorder history_;
  std::vector<std::unique_ptr<dsm::SiteRuntime>> runtimes_;
};

}  // namespace causim::engine
