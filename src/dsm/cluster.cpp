#include "dsm/cluster.hpp"

namespace causim::dsm {

namespace {

/// Runs validation before any member construction so a malformed config
/// fails with the engine's actionable message, not a downstream CHECK.
const ClusterConfig& validated(const ClusterConfig& config) {
  engine::validate_or_panic(config);
  return config;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(validated(config)),
      latency_(config_.latency_lo, config_.latency_hi) {
  // Latency selection: a topology's per-scope composite wins (validation
  // rejects topology + latency_model both set), then an explicit custom
  // model, then the flat uniform range.
  if (config_.topology.enabled()) {
    scoped_latency_ = config_.topology.make_latency_model(config_.sites);
  }
  const sim::LatencyModel& model =
      scoped_latency_ ? *scoped_latency_
      : config_.latency_model
          ? *config_.latency_model
          : static_cast<const sim::LatencyModel&>(latency_);
  transport_ = std::make_unique<net::SimTransport>(simulator_, model, config_.sites,
                                                   config_.seed);
  engine::NodeStack::Wiring wiring;
  wiring.wire = transport_.get();
  wiring.make_timer = [this] {
    return std::make_unique<net::SimTimerDriver>(simulator_);
  };
  wiring.now_fn = [this] { return simulator_.now(); };
  stack_ = std::make_unique<engine::NodeStack>(config_, std::move(wiring));
  executor_ = std::make_unique<engine::SimExecutor>(*stack_, simulator_);
  driver_ = std::make_unique<engine::ScheduleDriver>(*stack_, *executor_);
}

void Cluster::execute(const workload::Schedule& schedule) {
  driver_->execute(schedule);
}

stats::MessageStats Cluster::aggregate_message_stats() const {
  return stack_->aggregate_message_stats();
}

stats::Summary Cluster::aggregate_log_entries() const {
  return stack_->aggregate_log_entries();
}

stats::Summary Cluster::aggregate_fetch_latency() const {
  return stack_->aggregate_fetch_latency();
}

stats::Summary Cluster::aggregate_apply_delay() const {
  return stack_->aggregate_apply_delay();
}

std::uint64_t Cluster::total_applies() const { return stack_->total_applies(); }

void Cluster::export_metrics(obs::MetricsRegistry& registry) const {
  stack_->export_metrics(registry);
}

checker::CheckResult Cluster::check(checker::CheckOptions options) const {
  return stack_->check(options);
}

}  // namespace causim::dsm
