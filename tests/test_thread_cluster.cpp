// Integration tests for the real-thread transport path: the same schedules
// must drain, verify causally, and produce the message counts the DES run
// produces (counts are schedule+placement determined; interleavings only
// affect meta-data contents).
#include <gtest/gtest.h>

#include <vector>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/live/live_telemetry.hpp"
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

TEST_P(ThreadClusterAllProtocols, DrainsAndVerifies) {
  const auto kind = GetParam();
  const SiteId n = 5;
  ThreadCluster::Options options;
  options.max_wire_delay_us = 300;  // force real reordering
  ThreadCluster cluster(config_for(kind, n, 21), options);
  cluster.execute(schedule_for(n, 21));
  const auto result = cluster.check();
  EXPECT_TRUE(result.ok()) << to_string(kind) << ": "
                           << (result.violations.empty() ? ""
                                                         : result.violations.front());
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

// Both pool widths run the same sampler thread. Each tick stamps every
// site's time_sample event with that tick's steady-clock µs (the same as
// the timeseries row), so an occupancy series from a thread trace has a
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
