// Integration tests for the real-thread transport path: the same schedules
// must drain, verify causally, and produce the message counts the DES run
// produces (counts are schedule+placement determined; interleavings only
// affect meta-data contents).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/analysis/provenance.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"
#include "workload/schedule.hpp"

namespace causim::dsm {
namespace {

ClusterConfig config_for(causal::ProtocolKind kind, SiteId n, std::uint64_t seed) {
  ClusterConfig c;
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

class ThreadClusterAllProtocols
    : public ::testing::TestWithParam<causal::ProtocolKind> {};

// A delayed run drains and verifies, and its trace is one run to the
// offline analyzer although threads emit events a few µs out of stamp
// order: with the delay stage the only layer below the sites, every SM
// send meets its first hop and its activation.
TEST_P(ThreadClusterAllProtocols, DrainsAndVerifies) {
  const auto kind = GetParam();
  const SiteId n = 5;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 300;  // force real reordering
  ClusterConfig config = config_for(kind, n, 21);
  obs::RingBufferSink sink;
  config.trace_sink = &sink;
  ThreadCluster cluster(config, options);
  cluster.execute(schedule_for(n, 21));
  const auto result = cluster.check();
  EXPECT_TRUE(result.ok()) << to_string(kind) << ": "
                           << (result.violations.empty() ? ""
                                                         : result.violations.front());
  ASSERT_EQ(sink.dropped(), 0u);
  const obs::analysis::ProvenanceReport report =
      obs::analysis::analyze_provenance(sink.events());
  EXPECT_EQ(report.epochs, 1u) << to_string(kind);
  EXPECT_GT(report.sm_sends, 0u) << to_string(kind);
  EXPECT_EQ(report.activated, report.sm_sends) << to_string(kind);
  EXPECT_EQ(report.unresolved, 0u) << to_string(kind);
  EXPECT_EQ(report.sum_mismatch, 0u) << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ThreadClusterAllProtocols,
    ::testing::Values(causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ThreadCluster, MessageCountsMatchDiscreteEventRun) {
  const SiteId n = 6;
  const auto schedule = schedule_for(n, 33);

  Cluster des(config_for(causal::ProtocolKind::kOptTrack, n, 33));
  des.execute(schedule);

  ThreadCluster threads(config_for(causal::ProtocolKind::kOptTrack, n, 33));
  threads.execute(schedule);

  const auto a = des.aggregate_message_stats();
  const auto b = threads.aggregate_message_stats();
  EXPECT_EQ(a.of(MessageKind::kSM).count, b.of(MessageKind::kSM).count);
  EXPECT_EQ(a.of(MessageKind::kFM).count, b.of(MessageKind::kFM).count);
  EXPECT_EQ(a.of(MessageKind::kRM).count, b.of(MessageKind::kRM).count);
  // Payload bytes are schedule-determined too.
  EXPECT_EQ(a.total().payload_bytes, b.total().payload_bytes);
}

TEST(ThreadCluster, FixedSizeMetaMatchesAcrossTransportsExactly) {
  // Full-Track's piggyback is always the n×n matrix and optP's always the
  // n-vector — interleaving-independent — so DES and thread runs must
  // agree on meta BYTES to the byte, not just on counts.
  for (const auto kind :
       {causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptP}) {
    const SiteId n = 5;
    const auto schedule = schedule_for(n, 55);
    Cluster des(config_for(kind, n, 55));
    des.execute(schedule);
    ThreadCluster threads(config_for(kind, n, 55));
    threads.execute(schedule);
    EXPECT_EQ(des.aggregate_message_stats().total().meta_bytes,
              threads.aggregate_message_stats().total().meta_bytes)
        << to_string(kind);
    EXPECT_EQ(des.aggregate_message_stats().total().header_bytes,
              threads.aggregate_message_stats().total().header_bytes)
        << to_string(kind);
  }
}

TEST(ThreadCluster, GuardedFetchStaysFreshUnderRealConcurrency) {
  const SiteId n = 5;
  ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, 44);
  config.causal_fetch = true;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 400;
  ThreadCluster cluster(config, options);
  cluster.execute(schedule_for(n, 44));
  checker::CheckOptions strict;
  strict.strict_read_freshness = true;
  const auto result = cluster.check(strict);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? ""
                                                         : result.violations.front());
  EXPECT_EQ(result.stale_reads, 0u);
}

TEST(ThreadCluster, LogInstrumentationAggregates) {
  const SiteId n = 4;
  ThreadCluster cluster(config_for(causal::ProtocolKind::kOptTrack, n, 45));
  cluster.execute(schedule_for(n, 45));
  EXPECT_GT(cluster.aggregate_log_entries().count(), 0u);
}

// Both pool widths run the same sampler. Each tick stamps every site's
// time_sample event with that tick's reading of the stack clock (the same
// as the timeseries row), so an occupancy series from a thread trace has a
// time axis, and the events carry the site's log footprint (c = entries,
// d = bytes) once it has written.
TEST(ThreadCluster, LiveSamplerStampsPerSiteOccupancy) {
  const SiteId n = 4;
  for (const auto executor : {engine::ExecutorKind::kPerSite, engine::ExecutorKind::kPooled}) {
    ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, 46);
    config.executor = executor;
    if (executor == engine::ExecutorKind::kPooled) config.workers = 2;
    obs::RingBufferSink sink;
    config.trace_sink = &sink;
    obs::live::LiveConfig live_config;
    live_config.sites = config.sites;
    live_config.variables = config.variables;
    live_config.sample_interval = kMillisecond;
    obs::live::LiveTelemetry live(live_config);
    config.live = &live;
    ThreadCluster cluster(config);
    cluster.execute(schedule_for(n, 46));
    ASSERT_EQ(sink.dropped(), 0u);

    const std::string lane = to_string(executor);
    std::vector<std::size_t> ticks(n, 0);
    std::vector<SimTime> last_ts(n, -1);
    std::vector<bool> written(n, false);
    for (const obs::TraceEvent& e : sink.events()) {
      // A site's events reach the sink under its lock, so a write's
      // op_complete ahead of a tick means the tick saw that write.
      if (e.type == obs::TraceEventType::kOpComplete && e.b == 1) written[e.site] = true;
      if (e.type != obs::TraceEventType::kTimeSample) continue;
      ++ticks[e.site];
      EXPECT_GT(e.ts, last_ts[e.site]) << lane << " site " << e.site;
      last_ts[e.site] = e.ts;
      if (written[e.site]) {
        EXPECT_GT(e.c, 0u) << lane << " site " << e.site;
        EXPECT_GT(e.d, 0u) << lane << " site " << e.site;
      }
    }
    for (SiteId s = 0; s < n; ++s) {
      EXPECT_GE(ticks[s], 2u) << lane << " site " << s;
    }
    const auto report = obs::analysis::analyze(sink.events());
    EXPECT_EQ(report.occupancy.size(), n) << lane;
  }
}

// One clock per thread stack: the sites, the transport's delay stage, the
// fault and reliability layers and the sampler all stamp on the
// transport's clock, so every event of the run sits inside the run's wall
// time, an SM is never activated before it was sent, remote reads have a
// measured latency, and the live critical path tiles the live visibility
// total exactly. Only updates buffered on arrival wait: one whose
// predicate held is applied in its receipt's own drain, so it records no
// activation delay and its kActivated span is empty, while the
// kDepSatisfied segments of the buffered ones tile their waits.
TEST(ThreadCluster, OneClockStampsEveryLayer) {
  const SiteId n = 5;
  ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, 47);
  config.fault_plan.default_faults.drop_rate = 0.05;
  config.fault_plan.default_faults.dup_rate = 0.05;
  config.fault_plan.default_faults.extra_delay_max = 300;  // µs
  config.reliable_config.rto_initial = 20 * kMillisecond;
  config.reliable_config.rto_min = 10 * kMillisecond;
  obs::RingBufferSink sink;
  config.trace_sink = &sink;
  obs::live::LiveConfig live_config;
  live_config.sites = config.sites;
  live_config.variables = config.variables;
  live_config.sample_interval = kMillisecond;
  live_config.critpath = true;
  obs::live::LiveTelemetry live(live_config);
  config.live = &live;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 300;

  const auto before = std::chrono::steady_clock::now();
  ThreadCluster cluster(config, options);
  cluster.execute(schedule_for(n, 47));
  const SimTime wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - before)
                              .count();
  ASSERT_EQ(sink.dropped(), 0u);

  std::map<std::pair<std::uint64_t, SiteId>, SimTime> sent;  // (wid, dest) -> ts
  std::size_t activations = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    EXPECT_GE(e.ts, 0) << obs::to_string(e.type);
    EXPECT_LE(e.ts, wall_us) << obs::to_string(e.type);
    if (e.type == obs::TraceEventType::kSend && e.kind == MessageKind::kSM) {
      sent[{e.c, e.peer}] = e.ts;
    } else if (e.type == obs::TraceEventType::kActivated) {
      const auto it = sent.find({e.c, e.site});
      ASSERT_NE(it, sent.end()) << "activation before its send was traced";
      EXPECT_LE(it->second, e.ts);
      if (e.b == 0) {
        EXPECT_EQ(e.dur, 0);  // applied on arrival: no wait
      }
      ++activations;
    }
  }
  EXPECT_EQ(activations, sent.size());
  EXPECT_GT(cluster.stack().aggregate_fetch_latency().count(), 0u);
  obs::MetricsRegistry registry;
  cluster.export_metrics(registry);
  EXPECT_LE(cluster.stack().aggregate_apply_delay().count(),
            registry.counter("apply.buffered").value());

  const obs::live::CritpathSummary cp = live.critpath_summary();
  ASSERT_TRUE(cp.enabled);
  EXPECT_EQ(cp.ops, live.matched());
  EXPECT_DOUBLE_EQ(cp.wire.total_us + cp.arq.total_us + cp.dep_wait.total_us,
                   live.visibility_histogram().summary().sum());

  const obs::analysis::ProvenanceReport report =
      obs::analysis::analyze_provenance(sink.events());
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.activated, report.sm_sends);
  EXPECT_EQ(report.buffered, registry.counter("apply.buffered").value());
  EXPECT_EQ(report.unresolved, 0u);
}

TEST(ThreadCluster, RepeatedRunsAllVerify) {
  // Thread interleavings differ run to run; causal consistency must hold
  // in every one of them.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    ThreadCluster cluster(config_for(causal::ProtocolKind::kOptTrack, 4, seed));
    cluster.execute(schedule_for(4, seed));
    const auto result = cluster.check();
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << (result.violations.empty() ? ""
                                                           : result.violations.front());
  }
}

}  // namespace
}  // namespace causim::dsm
