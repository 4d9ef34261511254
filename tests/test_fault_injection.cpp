// Fault injection: a deliberately broken protocol (activation predicate
// short-circuited to "always ready") must be CAUGHT by the causal checker
// under adversarial channel latencies. This validates that the checker has
// teeth — a checker that never fires would make every property test
// meaningless.
#include <gtest/gtest.h>

#include "causal/factory.hpp"
#include "dsm/cluster.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

/// Decorator that forwards everything but declares every update ready.
class EagerProtocol final : public causal::Protocol {
 public:
  explicit EagerProtocol(std::unique_ptr<causal::Protocol> inner)
      : inner_(std::move(inner)) {}

  causal::ProtocolKind kind() const override { return inner_->kind(); }
  SiteId self() const override { return inner_->self(); }
  SiteId sites() const override { return inner_->sites(); }

  WriteId local_write(VarId var, const Value& v, const DestSet& dests,
                      serial::ByteWriter& meta_out) override {
    return inner_->local_write(var, v, dests, meta_out);
  }
  void local_read(VarId var) override { inner_->local_read(var); }

  std::unique_ptr<causal::PendingUpdate> decode_sm(causal::SmEnvelope env, DestSet dests,
                                                   serial::ByteReader& meta) override {
    return inner_->decode_sm(env, std::move(dests), meta);
  }
  // The injected fault: apply updates the moment they arrive.
  bool ready(const causal::PendingUpdate&) const override { return true; }
  void apply(causal::PendingUpdate& u) override {
    // Bypass the inner protocol's own readiness CHECK by only updating the
    // pieces the runtime needs; the simplest faithful "broken server" is to
    // apply through the inner protocol only when it happens to be ready,
    // and otherwise drop the ordering bookkeeping on the floor.
    if (inner_->ready(u)) inner_->apply(u);
  }
  void remote_return_meta(VarId var, serial::ByteWriter& out) const override {
    inner_->remote_return_meta(var, out);
  }
  std::unique_ptr<causal::PendingReturn> decode_remote_return(
      serial::ByteReader& meta) const override {
    return inner_->decode_remote_return(meta);
  }
  bool return_ready(const causal::PendingReturn&) const override {
    return true;  // part of the injected fault: never wait
  }
  void absorb_remote_return(VarId var, const causal::PendingReturn& r) override {
    if (inner_->return_ready(r)) inner_->absorb_remote_return(var, r);
  }
  std::size_t log_entry_count() const override { return inner_->log_entry_count(); }
  std::size_t local_meta_bytes() const override { return inner_->local_meta_bytes(); }

 private:
  std::unique_ptr<causal::Protocol> inner_;
};

TEST(FaultInjection, CheckerCatchesEagerApplication) {
  // Drive the runtime manually with an out-of-order-prone network: wide
  // latencies guarantee some site receives a causally-later update first.
  dsm::ClusterConfig config;
  config.sites = 6;
  config.variables = 10;
  config.replication = 0;  // full replication maximizes ordering constraints
  config.protocol = causal::ProtocolKind::kOptP;
  config.seed = 1;
  config.latency_lo = 1 * kMillisecond;
  config.latency_hi = 3000 * kMillisecond;

  // Build a cluster, then swap every site's protocol for the eager one.
  // The Cluster API owns its protocols, so replicate its wiring here using
  // the public pieces.
  sim::Simulator simulator;
  const sim::UniformLatency latency(config.latency_lo, config.latency_hi);
  net::SimTransport transport(simulator, latency, config.sites, config.seed);
  dsm::Placement placement = dsm::Placement::full(config.sites, config.variables);
  checker::HistoryRecorder history;

  std::vector<std::unique_ptr<dsm::SiteRuntime>> sites;
  for (SiteId i = 0; i < config.sites; ++i) {
    auto broken = std::make_unique<EagerProtocol>(
        causal::make_protocol(config.protocol, i, config.sites));
    sites.push_back(std::make_unique<dsm::SiteRuntime>(
        i, placement, transport, std::move(broken), &history,
        serial::ClockWidth::k4Bytes, [&simulator] { return simulator.now(); }));
    transport.attach(i, sites.back().get());
  }

  workload::WorkloadParams wl;
  wl.variables = 10;
  wl.write_rate = 0.7;
  wl.ops_per_site = 80;
  wl.warmup_fraction = 0.0;
  wl.seed = 3;
  const auto schedule = workload::generate_schedule(config.sites, wl);

  // Simple driver: issue each site's ops at their scheduled times (all ops
  // are local under full replication, so no fetch gating is needed).
  for (SiteId s = 0; s < config.sites; ++s) {
    for (const auto& op : schedule.per_site[s]) {
      simulator.schedule_at(op.at, [&sites, s, op] {
        if (op.kind == workload::Op::Kind::kWrite) {
          sites[s]->write(op.var, 0, op.record);
        } else {
          sites[s]->read(op.var, {}, op.record);
        }
      });
    }
  }
  simulator.run();

  const auto result = checker::check_causal_consistency(
      history.events(), config.sites,
      [&placement](VarId v) { return placement.replicas(v); });
  EXPECT_FALSE(result.ok())
      << "the checker failed to detect eagerly-applied (causally unordered) updates";
}

TEST(FaultInjection, SameSetupWithCorrectProtocolPasses) {
  // Control experiment: identical wiring minus the fault must pass, proving
  // the failure above is caused by the injected bug and not the harness.
  dsm::ClusterConfig config;
  config.sites = 6;
  config.variables = 10;
  config.replication = 0;
  config.protocol = causal::ProtocolKind::kOptP;
  config.seed = 1;
  config.latency_lo = 1 * kMillisecond;
  config.latency_hi = 3000 * kMillisecond;

  workload::WorkloadParams wl;
  wl.variables = 10;
  wl.write_rate = 0.7;
  wl.ops_per_site = 80;
  wl.warmup_fraction = 0.0;
  wl.seed = 3;

  dsm::Cluster cluster(config);
  cluster.execute(workload::generate_schedule(config.sites, wl));
  const auto result = cluster.check();
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? ""
                                                         : result.violations.front());
}

}  // namespace
}  // namespace causim
