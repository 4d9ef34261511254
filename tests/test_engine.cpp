// engine layer tests: EngineConfig validation (one assertion per
// rejection), NodeStack assembly through both cluster substrates, and the
// Sim-vs-Thread equivalence the refactor must preserve — both substrates
// now assemble the identical engine::NodeStack, so everything
// interleaving-independent must agree exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "engine/config.hpp"
#include "engine/node_stack.hpp"
#include "net/thread_transport.hpp"
#include "obs/live/live_telemetry.hpp"
#include "sim/latency.hpp"
#include "sim/rng.hpp"
#include "topo/topology.hpp"
#include "workload/schedule.hpp"

namespace causim::engine {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
  for (const auto& e : errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(EngineConfigValidation, AcceptsDefaults) {
  EXPECT_TRUE(validate(EngineConfig{}).empty());
}

TEST(EngineConfigValidation, RejectsZeroSites) {
  EngineConfig c;
  c.sites = 0;
  EXPECT_TRUE(mentions(validate(c), "sites must be >= 1"));
}

TEST(EngineConfigValidation, RejectsZeroVariables) {
  EngineConfig c;
  c.variables = 0;
  EXPECT_TRUE(mentions(validate(c), "variables must be >= 1"));
}

TEST(EngineConfigValidation, RejectsReplicationAboveSites) {
  EngineConfig c;
  c.sites = 4;
  c.replication = 5;
  EXPECT_TRUE(mentions(validate(c), "exceeds sites"));
}

TEST(EngineConfigValidation, RejectsPartialReplicationForFullOnlyProtocols) {
  EngineConfig c;
  c.sites = 6;
  c.replication = 2;
  c.protocol = causal::ProtocolKind::kOptP;
  EXPECT_TRUE(mentions(validate(c), "requires full replication"));
  c.protocol = causal::ProtocolKind::kOptTrackCrp;
  EXPECT_TRUE(mentions(validate(c), "requires full replication"));
  // Opt-Track is the partial-replication algorithm; same p is fine.
  c.protocol = causal::ProtocolKind::kOptTrack;
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, RejectsInvertedLatencyBounds) {
  EngineConfig c;
  c.latency_lo = 200 * kMillisecond;
  c.latency_hi = 100 * kMillisecond;
  EXPECT_TRUE(mentions(validate(c), "latency_lo"));
}

TEST(EngineConfigValidation, RejectsMalformedFetchDistances) {
  EngineConfig c;
  c.sites = 3;
  c.fetch_distances = {{0, 1, 2}, {1, 0, 2}};  // 2 rows for 3 sites
  EXPECT_TRUE(mentions(validate(c), "3x3"));
  c.fetch_distances = {{0, 1}, {1, 0}, {2, 2}};  // square count, short rows
  EXPECT_TRUE(mentions(validate(c), "3x3"));
}

TEST(EngineConfigValidation, RejectsNearestFetchWithoutDistances) {
  EngineConfig c;
  c.fetch_policy = dsm::FetchPolicy::kNearest;
  EXPECT_TRUE(mentions(validate(c), "kNearest needs fetch_distances"));
}

TEST(EngineConfigValidation, RejectsReliableRtoMisconfiguration) {
  EngineConfig c;
  c.reliable_channel = true;
  c.reliable_config.rto_initial = 0;
  EXPECT_TRUE(mentions(validate(c), "rto_initial must be positive"));

  c.reliable_config.rto_initial = 2 * kSecond;
  c.reliable_config.rto_max = 1 * kSecond;
  EXPECT_TRUE(mentions(validate(c), "rto_max"));

  c.reliable_config = {};
  c.reliable_config.rto_backoff = 0.5;
  EXPECT_TRUE(mentions(validate(c), "rto_backoff"));
}

TEST(EngineConfigValidation, RejectsAdaptiveRtoMisconfiguration) {
  EngineConfig c;
  c.reliable_channel = true;
  c.reliable_config.adaptive_rto = true;
  c.reliable_config.rto_min = 0;
  EXPECT_TRUE(mentions(validate(c), "rto_min must be positive"));

  c.reliable_config = {};
  c.reliable_config.adaptive_rto = true;
  c.reliable_config.rto_min = 2 * kSecond;
  c.reliable_config.rto_max = 1 * kSecond;
  c.reliable_config.rto_initial = 500 * kMillisecond;
  EXPECT_TRUE(mentions(validate(c), "rto_min"));

  // Without adaptive_rto the estimator clamps are dormant and irrelevant.
  c.reliable_config = {};
  c.reliable_config.rto_min = 0;
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, IgnoresReliableConfigWhileLayerIsDown) {
  // Without a fault plan or the forced reliable channel the sublayer is
  // never built, so its knobs are irrelevant and must not reject.
  EngineConfig c;
  c.reliable_config.rto_backoff = 0.5;
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, RejectsWorkersWithPerSiteExecutor) {
  EngineConfig c;
  c.workers = 4;  // executor stays the kPerSite default
  const auto errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_TRUE(mentions(errors, "executor"));

  c.executor = ExecutorKind::kPooled;
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, RejectsDegenerateBatchThresholds) {
  EngineConfig c;
  c.batch.enabled = true;
  EXPECT_TRUE(validate(c).empty()) << "defaults must validate";

  c.batch.max_messages = 0;
  EXPECT_TRUE(mentions(validate(c), "batch.max_messages"));
  c.batch.max_messages = 16;

  c.batch.max_delay = 0;
  EXPECT_TRUE(mentions(validate(c), "batch.max_delay"));
  c.batch.max_delay = kMillisecond;
  EXPECT_TRUE(validate(c).empty());

  // Disabled batching skips the threshold checks entirely.
  c.batch.enabled = false;
  c.batch.max_messages = 0;
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, CollectsEveryViolation) {
  EngineConfig c;
  c.sites = 2;
  c.variables = 0;
  c.replication = 3;
  c.latency_lo = 10;
  c.latency_hi = 5;
  EXPECT_EQ(validate(c).size(), 3u);
}

// ---------------------------------------------------------------------------

dsm::ClusterConfig config_for(causal::ProtocolKind kind, SiteId n,
                              std::uint64_t seed) {
  dsm::ClusterConfig c;
  c.sites = n;
  c.variables = 12;
  c.replication = causal::requires_full_replication(kind)
                      ? 0
                      : bench_support::partial_replication_factor(n);
  c.protocol = kind;
  c.seed = seed;
  return c;
}

workload::Schedule schedule_for(SiteId n, std::uint64_t seed) {
  workload::WorkloadParams params;
  params.variables = 12;
  params.write_rate = 0.5;
  params.ops_per_site = 60;
  params.seed = seed;
  return workload::generate_schedule(n, params);
}

TEST(NodeStackAssembly, BareConfigBuildsNoFaultStack) {
  dsm::Cluster cluster(config_for(causal::ProtocolKind::kOptTrack, 4, 7));
  EXPECT_EQ(cluster.injector(), nullptr);
  EXPECT_EQ(cluster.reliable(), nullptr);
  // Without the fault stack the sites talk to the wire directly.
  EXPECT_EQ(&cluster.edge(), &cluster.transport());
}

TEST(NodeStackAssembly, ReliableChannelRaisesTheEdge) {
  auto config = config_for(causal::ProtocolKind::kOptTrack, 4, 7);
  config.reliable_channel = true;
  dsm::Cluster cluster(config);
  EXPECT_EQ(cluster.injector(), nullptr);
  ASSERT_NE(cluster.reliable(), nullptr);
  EXPECT_NE(&cluster.edge(), &cluster.transport());
}

TEST(NodeStackAssembly, FaultPlanImpliesInjectorAndReliability) {
  auto config = config_for(causal::ProtocolKind::kOptTrack, 4, 7);
  config.fault_plan.default_faults.drop_rate = 0.05;
  dsm::Cluster cluster(config);
  EXPECT_NE(cluster.injector(), nullptr);
  EXPECT_NE(cluster.reliable(), nullptr);
}

TEST(NodeStackAssembly, FramePoolRecyclesInSteadyState) {
  dsm::Cluster cluster(config_for(causal::ProtocolKind::kOptTrack, 5, 9));
  cluster.execute(schedule_for(5, 9));
  // Every message encodes into a pooled frame and every consumed frame is
  // released back, so after warm-up nearly all acquisitions are reuses.
  const auto& pool = cluster.stack().buffer_pool();
  EXPECT_GT(pool.reuses(), 0u);
  EXPECT_GT(pool.reuses(), pool.misses());
}

TEST(NodeStackAssembly, ThreadClusterSharesTheSameAssembly) {
  auto config = config_for(causal::ProtocolKind::kOptTrack, 4, 11);
  config.reliable_channel = true;
  dsm::ThreadCluster cluster(config);
  ASSERT_NE(cluster.reliable(), nullptr);
  cluster.execute(schedule_for(4, 11));
  EXPECT_TRUE(cluster.check().ok());
  EXPECT_GT(cluster.stack().buffer_pool().reuses(), 0u);
}

TEST(NodeStackAssembly, LiveTrackerNeedsTheStackClock) {
  // The tracker keeps no clock of its own and reads only event stamps, so
  // a wiring without a clock is refused rather than yielding a run whose
  // latencies and trace have no time axis.
  auto config = config_for(causal::ProtocolKind::kOptTrack, 4, 7);
  obs::live::LiveConfig live_config;
  live_config.sites = config.sites;
  live_config.variables = config.variables;
  obs::live::LiveTelemetry live(live_config);
  config.live = &live;
  net::ThreadTransport wire(config.sites);
  NodeStack::Wiring wiring;
  wiring.wire = &wire;
  EXPECT_DEATH(NodeStack(config, std::move(wiring)), "needs the stack clock");
}

// ---------------------------------------------------------------------------

topo::Topology block_topology(SiteId sites, std::size_t cells) {
  topo::LinkProfile intra;
  topo::LinkProfile inter;
  inter.latency_lo = 40 * kMillisecond;
  inter.latency_hi = 45 * kMillisecond;
  return topo::Topology::blocks(sites, cells, intra, inter);
}

TEST(EngineConfigValidation, RejectsGatewayWithoutMultiCellTopology) {
  EngineConfig c;
  c.gateway.enabled = true;
  EXPECT_TRUE(mentions(validate(c), "requires a multi-cell topology"));
  // A one-cell topology is still all-LAN: nothing to coalesce.
  c.topology = block_topology(c.sites, 1);
  EXPECT_TRUE(mentions(validate(c), "requires a multi-cell topology"));
  c.topology = block_topology(c.sites, 2);
  EXPECT_TRUE(validate(c).empty());
}

TEST(EngineConfigValidation, RejectsTopologyPlusCustomLatencyModel) {
  EngineConfig c;
  c.topology = block_topology(c.sites, 2);
  c.latency_model = std::make_shared<sim::UniformLatency>(1000, 2000);
  EXPECT_TRUE(mentions(validate(c), "mutually exclusive"));
}

TEST(EngineConfigValidation, RejectsCellsThatDoNotPartitionTheSites) {
  EngineConfig c;
  c.sites = 4;
  c.topology.cells = {topo::Cell{"dc0", {0, 1}, 0},
                      topo::Cell{"dc1", {2}, 2}};  // site 3 unowned
  EXPECT_TRUE(mentions(validate(c), "belongs to no cell"));

  c.topology.cells = {topo::Cell{"dc0", {0, 1, 2}, 0},
                      topo::Cell{"dc1", {2, 3}, 2}};  // site 2 twice
  EXPECT_TRUE(mentions(validate(c), "cells must be disjoint"));
}

TEST(EngineConfigValidation, RejectsDegenerateGatewayThresholds) {
  EngineConfig c;
  c.topology = block_topology(c.sites, 2);
  c.gateway.enabled = true;
  c.gateway.max_messages = 0;
  EXPECT_TRUE(mentions(validate(c), "max_messages must be >= 1"));

  c.gateway.max_messages = 16;
  c.gateway.max_delay = 0;
  EXPECT_TRUE(mentions(validate(c), "max_delay must be >= 1us"));
}

TEST(EngineConfigValidation, RejectsBadTopologyProfiles) {
  EngineConfig c;
  c.topology = block_topology(c.sites, 2);
  c.topology.inter.latency_lo = 10 * kMillisecond;
  c.topology.inter.latency_hi = 1 * kMillisecond;
  EXPECT_TRUE(mentions(validate(c), "swap the bounds"));

  c = EngineConfig{};
  c.topology = block_topology(c.sites, 2);
  c.topology.intra.faults.drop_rate = 1.5;
  EXPECT_TRUE(mentions(validate(c), "fault rates must be in [0, 1]"));
}

TEST(NodeStackAssembly, GatewayLayerToppedOnlyOnMultiCellTopologies) {
  auto config = config_for(causal::ProtocolKind::kOptTrack, 6, 7);
  EXPECT_EQ(dsm::Cluster(config).stack().gateway(), nullptr);

  // A multi-cell topology always raises the layer; with coalescing off it
  // is a counting pass-through (LAN/WAN accounting, no mailbox frames).
  config.topology = block_topology(6, 2);
  dsm::Cluster passthrough(config);
  ASSERT_NE(passthrough.stack().gateway(), nullptr);
  EXPECT_FALSE(passthrough.stack().gateway()->coalescing());
  passthrough.execute(schedule_for(6, 7));
  EXPECT_TRUE(passthrough.check().ok());
  EXPECT_EQ(passthrough.stack().gateway()->mailbox_frames(), 0u);
  EXPECT_GT(passthrough.stack().gateway()->wan_messages(), 0u);

  config.gateway.enabled = true;
  dsm::Cluster with(config);
  ASSERT_NE(with.stack().gateway(), nullptr);
  EXPECT_TRUE(with.stack().gateway()->coalescing());
  with.execute(schedule_for(6, 7));
  EXPECT_TRUE(with.check().ok());
  EXPECT_GT(with.stack().gateway()->mailbox_frames(), 0u);
}

TEST(NodeStackAssembly, TopologyFaultProfilesRaiseTheFaultStack) {
  auto config = config_for(causal::ProtocolKind::kOptTrack, 6, 7);
  config.topology = block_topology(6, 2);
  config.topology.inter.faults.drop_rate = 0.1;
  dsm::Cluster cluster(config);
  EXPECT_NE(cluster.injector(), nullptr);
  EXPECT_NE(cluster.reliable(), nullptr);
}

// ---------------------------------------------------------------------------

struct TrafficFingerprint {
  std::uint64_t messages;
  std::uint64_t header;
  std::uint64_t meta;
  std::uint64_t payload;
  std::uint64_t events;
  std::size_t history;

  bool operator==(const TrafficFingerprint&) const = default;
};

TrafficFingerprint run_fingerprint(dsm::ClusterConfig config) {
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(config.sites, config.seed));
  const auto total = cluster.aggregate_message_stats().total();
  return TrafficFingerprint{total.count,
                            total.header_bytes,
                            total.meta_bytes,
                            total.payload_bytes,
                            cluster.simulator().executed(),
                            cluster.history().size()};
}

class TopologyEquivalence
    : public ::testing::TestWithParam<causal::ProtocolKind> {};

TEST_P(TopologyEquivalence, SingleCellTopologyIsByteIdenticalToFlatConfig) {
  // A one-cell topology routes every channel through the intra profile, so
  // ScopedLatency degenerates to one UniformLatency making the identical
  // RNG draws, no gateway layer is built, and the run must reproduce the
  // flat config exactly — the refactor's backward-compatibility crux.
  const auto flat = config_for(GetParam(), 6, 29);

  auto topo_config = flat;
  topo::LinkProfile intra;
  intra.latency_lo = flat.latency_lo;
  intra.latency_hi = flat.latency_hi;
  topo_config.topology = topo::Topology::blocks(6, 1, intra, intra);
  ASSERT_TRUE(validate(topo_config).empty());

  EXPECT_EQ(run_fingerprint(flat), run_fingerprint(topo_config));
}

TEST_P(TopologyEquivalence, MultiCellGatewayPreservesPerKindMessageCounts) {
  // Latency and coalescing shape timing, never the protocol traffic: the
  // per-kind message counts are schedule/placement determined, so a
  // two-cell gateway run must send exactly what the flat run sends.
  const auto flat = config_for(GetParam(), 6, 31);

  auto geo = flat;
  geo.topology = block_topology(6, 2);
  geo.gateway.enabled = true;
  ASSERT_TRUE(validate(geo).empty());

  dsm::Cluster flat_cluster(flat);
  flat_cluster.execute(schedule_for(6, 31));
  dsm::Cluster geo_cluster(geo);
  geo_cluster.execute(schedule_for(6, 31));

  EXPECT_TRUE(geo_cluster.check().ok());
  for (const MessageKind kind : kAllMessageKinds) {
    EXPECT_EQ(flat_cluster.aggregate_message_stats().of(kind).count,
              geo_cluster.aggregate_message_stats().of(kind).count)
        << causim::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TopologyEquivalence,
    ::testing::Values(causal::ProtocolKind::kFullTrack,
                      causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp,
                      causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------

class SimThreadEquivalence
    : public ::testing::TestWithParam<causal::ProtocolKind> {};

TEST_P(SimThreadEquivalence, ProtocolTrafficMatchesAcrossSubstrates) {
  // Both substrates assemble the identical engine::NodeStack and play the
  // same schedule through engine::ScheduleDriver, so per-kind message
  // counts, header bytes and payload bytes — all schedule+placement
  // determined — must match exactly for every protocol. Meta BYTES are
  // only interleaving-independent for the fixed-size clocks (Full-Track's
  // n×n matrix, optP's n-vector); Opt-Track and CRP piggyback logs whose
  // size depends on delivery order, so those are asserted separately in
  // the fixed-size case below.
  const auto kind = GetParam();
  const SiteId n = 6;
  const std::uint64_t seed = 73;
  const auto schedule = schedule_for(n, seed);

  dsm::Cluster des(config_for(kind, n, seed));
  des.execute(schedule);
  dsm::ThreadCluster threads(config_for(kind, n, seed));
  threads.execute(schedule);

  const auto a = des.aggregate_message_stats();
  const auto b = threads.aggregate_message_stats();
  for (const MessageKind mk : kAllMessageKinds) {
    EXPECT_EQ(a.of(mk).count, b.of(mk).count) << to_string(kind);
    EXPECT_EQ(a.of(mk).header_bytes, b.of(mk).header_bytes) << to_string(kind);
    EXPECT_EQ(a.of(mk).payload_bytes, b.of(mk).payload_bytes) << to_string(kind);
  }
  if (kind == causal::ProtocolKind::kFullTrack ||
      kind == causal::ProtocolKind::kOptP) {
    EXPECT_EQ(a.total().meta_bytes, b.total().meta_bytes) << to_string(kind);
  }
  EXPECT_TRUE(threads.check().ok()) << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SimThreadEquivalence,
    ::testing::Values(causal::ProtocolKind::kFullTrack,
                      causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp,
                      causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------

/// Single-writer schedule: site s is the only writer of the variables
/// congruent to s (mod n). Causal delivery then totally orders each
/// variable's writes by its owner's program order, so the FINAL STORE
/// STATE — not just the traffic — is interleaving-independent and must
/// match across executors exactly.
workload::Schedule single_writer_schedule(SiteId n, VarId variables,
                                          std::size_t ops, std::uint64_t seed) {
  sim::Pcg32 rng(seed);
  workload::Schedule schedule;
  schedule.per_site.resize(n);
  const VarId owned = variables / n;
  for (SiteId s = 0; s < n; ++s) {
    SimTime at = 0;
    for (std::size_t k = 0; k < ops; ++k) {
      workload::Op op;
      at += static_cast<SimTime>(rng.uniform_int(1, 20)) * kMillisecond;
      op.at = at;
      if (k % 2 == 0) {
        op.kind = workload::Op::Kind::kWrite;
        op.var = static_cast<VarId>(
            s + n * static_cast<VarId>(rng.uniform_int(0, owned - 1)));
      } else {
        op.kind = workload::Op::Kind::kRead;
        op.var = static_cast<VarId>(rng.uniform_int(0, variables - 1));
      }
      schedule.per_site[s].push_back(op);
    }
  }
  return schedule;
}

/// The pooled executor against the per-site width (one worker per site),
/// across every protocol and the worker-count regimes that exercise
/// distinct pool shapes: W=1 (fully serialized pool), W=0 (hardware
/// concurrency) and W>n (more workers than sites — some never find work).
class PooledExecutorEquivalence
    : public ::testing::TestWithParam<
          std::tuple<causal::ProtocolKind, unsigned>> {};

TEST_P(PooledExecutorEquivalence, MatchesPerSiteExecutor) {
  const auto [kind, workers] = GetParam();
  const SiteId n = 6;
  const VarId variables = 12;
  const std::uint64_t seed = 41;
  const auto schedule = single_writer_schedule(n, variables, 60, seed);

  auto config = config_for(kind, n, seed);
  dsm::ThreadCluster per_site(config);
  per_site.execute(schedule);

  config.executor = ExecutorKind::kPooled;
  config.workers = workers;
  dsm::ThreadCluster pooled(config);
  pooled.execute(schedule);

  // Per-kind counts and header/payload bytes are schedule+placement
  // determined; meta bytes only for the fixed-size clocks (the log-carrying
  // protocols piggyback interleaving-dependent bytes).
  const auto a = per_site.aggregate_message_stats();
  const auto b = pooled.aggregate_message_stats();
  for (const MessageKind mk : kAllMessageKinds) {
    EXPECT_EQ(a.of(mk).count, b.of(mk).count) << to_string(kind);
    EXPECT_EQ(a.of(mk).header_bytes, b.of(mk).header_bytes) << to_string(kind);
    EXPECT_EQ(a.of(mk).payload_bytes, b.of(mk).payload_bytes) << to_string(kind);
  }
  if (kind == causal::ProtocolKind::kFullTrack ||
      kind == causal::ProtocolKind::kOptP) {
    EXPECT_EQ(a.total().meta_bytes, b.total().meta_bytes) << to_string(kind);
  }

  // Single-writer final stores must agree replica by replica.
  for (VarId v = 0; v < variables; ++v) {
    for (SiteId s = 0; s < n; ++s) {
      if (!per_site.placement().replicated_at(v, s)) continue;
      const auto [value_a, write_a] = per_site.site(s).local_value(v);
      const auto [value_b, write_b] = pooled.site(s).local_value(v);
      EXPECT_EQ(value_a.id, value_b.id) << "var " << v << " at site " << s;
      EXPECT_EQ(write_a, write_b) << "var " << v << " at site " << s;
    }
  }
  EXPECT_TRUE(pooled.check().ok()) << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByWorkers, PooledExecutorEquivalence,
    ::testing::Combine(::testing::Values(causal::ProtocolKind::kFullTrack,
                                         causal::ProtocolKind::kOptTrack,
                                         causal::ProtocolKind::kOptTrackCrp,
                                         causal::ProtocolKind::kOptP),
                       ::testing::Values(1u, 0u /* hardware */, 9u /* > n */)),
    [](const ::testing::TestParamInfo<std::tuple<causal::ProtocolKind, unsigned>>&
           param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      const unsigned w = std::get<1>(param_info.param);
      name += w == 0 ? "_Whw" : "_W" + std::to_string(w);
      return name;
    });

}  // namespace
}  // namespace causim::engine
