// EngineConfig — the one validated description of an n-site causal DSM
// instance, shared by every stack assembly (the discrete-event
// dsm::Cluster and the real-thread dsm::ThreadCluster both hand this to
// engine::NodeStack).
//
// Historically each cluster carried its own copy of this struct's
// interpretation; hoisting it here means the fault-stack, reliability and
// observability knobs are defined — and validated — exactly once.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "causal/factory.hpp"
#include "common/ids.hpp"
#include "dsm/placement.hpp"
#include "faults/fault_plan.hpp"
#include "net/coalescer.hpp"
#include "net/reliable_channel.hpp"
#include "sim/latency.hpp"
#include "topo/topology.hpp"

namespace causim::obs {
class TraceSink;
}  // namespace causim::obs

namespace causim::obs::live {
class LiveTelemetry;
}  // namespace causim::obs::live

namespace causim::engine {

/// Which schedule-execution substrate a thread-backed cluster runs.
enum class ExecutorKind : std::uint8_t {
  /// The worker pool with one worker per site — the width of the paper's
  /// one-process-per-site testbed, and the default. The discrete-event
  /// Cluster always uses SimExecutor and ignores this field.
  kPerSite = 0,
  /// N sites multiplexed over a fixed pool of `workers` worker threads:
  /// the PaRiS/Okapi "many partitions per server" regime. Both kinds run
  /// PooledExecutor; only the pool width differs.
  kPooled,
};

inline const char* to_string(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kPerSite: return "per-site";
    case ExecutorKind::kPooled: return "pooled";
  }
  return "??";
}

struct EngineConfig {
  SiteId sites = 5;                                  // n
  VarId variables = 100;                             // q
  /// Replicas per variable (p). 0 means full replication (p = n).
  SiteId replication = 0;
  causal::ProtocolKind protocol = causal::ProtocolKind::kOptTrack;
  causal::ProtocolOptions protocol_options = {};
  dsm::PlacementStrategy placement_strategy = dsm::PlacementStrategy::kRandom;
  dsm::FetchPolicy fetch_policy = dsm::FetchPolicy::kHashed;
  /// n×n site distances, required for FetchPolicy::kNearest (typically the
  /// latency model's base matrix).
  std::vector<std::vector<SimTime>> fetch_distances;
  std::uint64_t seed = 1;
  /// Uniform one-way channel latency range; wide enough by default that
  /// cross-channel arrivals genuinely reorder.
  SimTime latency_lo = 5 * kMillisecond;
  SimTime latency_hi = 150 * kMillisecond;
  /// Optional custom latency model (e.g. sim::GeoLatency); overrides the
  /// uniform range above when set. Must outlive the cluster.
  std::shared_ptr<const sim::LatencyModel> latency_model;
  /// Record the execution history for the causal checker.
  bool record_history = true;
  /// Causally fresh RemoteFetch (extension; see SiteRuntime): FMs carry a
  /// guard and responders delay replies until they applied every write in
  /// the reader's causal past destined to them. Off by default — the
  /// paper's FM carries no meta-data (Table I) and replies immediately.
  bool causal_fetch = false;
  /// Optional structured-trace sink (src/obs), attached to the transport
  /// and every site. Must outlive the cluster. Null disables tracing.
  obs::TraceSink* trace_sink = nullptr;
  /// Channel faults to inject between the sites and the wire
  /// (causim::faults). Any active fault automatically enables the
  /// reliability sublayer below — the protocols are written against the
  /// reliable FIFO channels of §II-B and would wedge on a lossy wire. The
  /// default (empty) plan builds no fault stack at all, so a run is
  /// byte-identical to one before the layer existed.
  faults::FaultPlan fault_plan;
  /// Forces the reliability sublayer on even with an empty fault plan (the
  /// equivalence tests use this to measure the layer's own overhead). Its
  /// ACK traffic shares the transport RNG, so enabling it perturbs packet
  /// timing — protocol-level message counts and sizes stay the same, wire
  /// timing does not.
  bool reliable_channel = false;
  net::ReliableConfig reliable_config;
  /// Thread-path pool width (see ExecutorKind).
  ExecutorKind executor = ExecutorKind::kPerSite;
  /// Worker threads for ExecutorKind::kPooled; 0 = one per hardware
  /// thread. Must stay 0 with the per-site executor (validated) — a
  /// silently ignored worker count would misreport every scaling sweep.
  unsigned workers = 0;
  /// Per-channel message coalescing at the transport edge (see
  /// net::BatchingTransport). Off by default; enabling it interposes a
  /// BatchingTransport above the reliability layer, so one wire frame
  /// carries a length-prefixed batch of protocol messages.
  net::CoalesceConfig batch;
  /// Two-level datacenter topology (causim::topo): sites grouped into
  /// cells with per-scope link profiles. Empty (the default) keeps the
  /// flat single-profile cluster and runs stay byte-identical to the
  /// pre-topology engine. A non-empty topology must partition the sites,
  /// replaces latency_lo/latency_hi with its per-scope profiles (mutually
  /// exclusive with latency_model), compiles per-scope faults/ARQ into the
  /// stack, and — when multi-cell — interposes the cross-DC gateway layer.
  topo::Topology topology;
  /// Cross-DC gateway mailbox thresholds (see net::GatewayMailbox). The layer
  /// itself is built for any multi-cell topology (it carries the
  /// LAN/WAN-scope accounting); `gateway.enabled` additionally turns on
  /// mailbox coalescing through the cell gateways. Requires a multi-cell
  /// topology when enabled (validated).
  net::CoalesceConfig gateway;
  /// Online telemetry (obs::live): when set, the stack interposes it in
  /// front of trace_sink (events flow through it and are forwarded), the
  /// visibility tracker runs, and — if its sample_interval is non-zero —
  /// the executor drives the time-series sampler. Its per-site kTimeSample
  /// events are the only source of the log-occupancy series obs::analysis
  /// reports, so a traced run that wants one attaches a sampling tracker;
  /// only execute() drives the sampler, not hand-driven settle() runs.
  /// Must outlive the cluster and match this config's sites/variables.
  /// Null disables everything, keeping runs byte-identical to the
  /// pre-telemetry engine.
  obs::live::LiveTelemetry* live = nullptr;

  SiteId effective_replication() const {
    return replication == 0 ? sites : replication;
  }
};

/// Checks every cross-field invariant a stack assembly relies on and
/// returns one actionable message per violation (empty = valid). Kept
/// side-effect-free so tests can assert on individual rejections without
/// tripping the panic handler.
std::vector<std::string> validate(const EngineConfig& config);

/// Panics (CAUSIM_CHECK) with every validation message when the config is
/// invalid. NodeStack calls this, so a malformed config fails fast at
/// assembly time instead of wedging mid-run.
void validate_or_panic(const EngineConfig& config);

}  // namespace causim::engine
