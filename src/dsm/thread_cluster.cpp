#include "dsm/thread_cluster.hpp"

#include "engine/pooled_executor.hpp"

namespace causim::dsm {

ThreadCluster::ThreadCluster(const ClusterConfig& config)
    : ThreadCluster(config, Options()) {}

ThreadCluster::ThreadCluster(const ClusterConfig& config, Options options)
    : config_(config) {
  engine::validate_or_panic(config_);
  net::ThreadTransport::Options topt;
  topt.max_delay_us = options.max_wire_delay_us;
  topt.seed = config_.seed;
  transport_ = std::make_unique<net::ThreadTransport>(config_.sites, topt);
  // One clock for the whole stack: the transport's. The sites stamp their
  // events and time fetches and buffered applies with it, and the timer
  // behind RTOs, injected delays and coalescer flushes reads it too.
  const net::ThreadTransport* clock = transport_.get();
  engine::NodeStack::Wiring wiring;
  wiring.wire = transport_.get();
  wiring.make_timer = [epoch = clock->epoch()] {
    return std::make_unique<net::ThreadTimerDriver>(epoch);
  };
  wiring.now_fn = [clock] { return clock->now(); };
  stack_ = std::make_unique<engine::NodeStack>(config_, std::move(wiring));
  engine::PooledExecutor::Options popt;
  popt.workers = config_.executor == engine::ExecutorKind::kPooled
                     ? config_.workers
                     : config_.sites;
  executor_ = std::make_unique<engine::PooledExecutor>(*stack_, *transport_, popt);
  driver_ = std::make_unique<engine::ScheduleDriver>(*stack_, *executor_);
}

ThreadCluster::~ThreadCluster() {
  // Emergency teardown when execute() did not complete (exception unwind):
  // background threads must not outlive the stack they reference.
  if (executor_ != nullptr) executor_->abort();
}

void ThreadCluster::execute(const workload::Schedule& schedule) {
  driver_->execute(schedule);
}

stats::MessageStats ThreadCluster::aggregate_message_stats() const {
  return stack_->aggregate_message_stats();
}

stats::Summary ThreadCluster::aggregate_log_entries() const {
  return stack_->aggregate_log_entries();
}

void ThreadCluster::export_metrics(obs::MetricsRegistry& registry) const {
  stack_->export_metrics(registry);
}

checker::CheckResult ThreadCluster::check(checker::CheckOptions options) const {
  return stack_->check(options);
}

}  // namespace causim::dsm
