// Integration tests for the live telemetry layer (obs::live): the
// streaming visibility tracker and time-series sampler attached to real
// cluster runs on both substrates.
//
//  - Determinism: under the DES the sampler ticks on simulated time, so
//    the same seed must produce byte-identical causim.timeseries.v1 JSON.
//  - Offline/online agreement: replaying the recorded trace through a
//    fresh tracker must reproduce the streaming histograms exactly — the
//    two paths are the same fold over the same event stream.
//  - Substrate agreement: the thread transport delivers the same messages
//    the DES does, so matched-visibility counts are equal and no send is
//    ever left uncorrelated; on both substrates the streamed quantiles
//    must sit within one log-bucket of an exact sorted-sample oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

dsm::ClusterConfig config_for(causal::ProtocolKind kind, SiteId n, std::uint64_t seed) {
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

obs::live::LiveConfig live_config_for(const dsm::ClusterConfig& config) {
  obs::live::LiveConfig live;
  live.sites = config.sites;
  live.variables = config.variables;
  return live;
}

// Streamed quantile vs the exact order statistic: a log-bucketed histogram
// can only err by the width of the bucket holding the rank, so the
// estimate must sit in [x, max(x, lo)·ratio] with ratio =
// 10^(1/buckets_per_decade). Same bound as the test_stats oracle, applied
// here to real visibility latencies.
void expect_quantiles_match_oracle(const obs::live::LiveTelemetry& live,
                                   const char* what) {
  std::vector<double> samples = live.latency_samples();
  ASSERT_FALSE(samples.empty()) << what;
  std::sort(samples.begin(), samples.end());
  const obs::live::LiveConfig defaults;
  const double ratio =
      std::pow(10.0, 1.0 / static_cast<double>(defaults.buckets_per_decade));
  const stats::Histogram h = live.visibility_histogram();
  ASSERT_EQ(h.count(), samples.size()) << what;
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    const double exact = samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
    const double streamed = h.quantile(q);
    EXPECT_GE(streamed, exact - 1e-9) << what << " q=" << q;
    EXPECT_LE(streamed, std::max(exact, defaults.latency_lo_us) * ratio + 1e-9)
        << what << " q=" << q << " exact=" << exact;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back()) << what;
}

// Same seed, same schedule — the DES sampler runs on simulated time, so
// two independent runs must serialize to byte-identical timeseries JSON.
TEST(ObsLiveTimeseries, SameSeedIsByteIdenticalUnderSim) {
  const SiteId n = 5;
  const std::uint64_t seed = 77;
  const auto schedule = schedule_for(n, seed);

  auto run_once = [&](std::string* out, std::size_t* samples) {
    dsm::ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, seed);
    obs::live::LiveConfig live_config = live_config_for(config);
    live_config.sample_interval = 500 * kMillisecond;
    obs::live::LiveTelemetry live(live_config);
    live.begin_run(seed);
    config.live = &live;
    dsm::Cluster cluster(config);
    cluster.execute(schedule);
    *samples = live.samples().size();
    std::ostringstream os;
    live.write_timeseries_json(os);
    *out = os.str();
  };

  std::string a, b;
  std::size_t samples_a = 0, samples_b = 0;
  run_once(&a, &samples_a);
  run_once(&b, &samples_b);
  EXPECT_GT(samples_a, 3u);  // the run is long enough to tick repeatedly
  EXPECT_EQ(samples_a, samples_b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"causim.timeseries.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"seed\":77"), std::string::npos);
}

TEST(ObsLiveTimeseries, CumulativeCountersAreMonotone) {
  const SiteId n = 4;
  dsm::ClusterConfig config = config_for(causal::ProtocolKind::kOptTrack, n, 5);
  obs::live::LiveConfig live_config = live_config_for(config);
  live_config.sample_interval = 500 * kMillisecond;
  obs::live::LiveTelemetry live(live_config);
  live.begin_run(5);
  config.live = &live;
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(n, 5));

  const auto& samples = live.samples();
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].ts, samples[i - 1].ts);
    EXPECT_GE(samples[i].ops, samples[i - 1].ops);
    EXPECT_GE(samples[i].sends, samples[i - 1].sends);
    EXPECT_GE(samples[i].applies, samples[i - 1].applies);
  }
  EXPECT_EQ(live.truncated_samples(), 0u);
  // The sampler stops within one interval of quiescence, so the final
  // sample trails the drained totals by at most that window.
  EXPECT_GT(samples.back().ops, 0u);
  EXPECT_LE(samples.back().ops, live.ops());
  EXPECT_LE(samples.back().sends, live.sends());
}

class ObsLiveAllProtocols : public ::testing::TestWithParam<causal::ProtocolKind> {};

// The offline path (replay the recorded trace into a fresh tracker) and
// the streaming path (tracker interposed during the run) are the same
// fold over the same events — histograms and counts must agree exactly.
// This is what keeps protocol orderings consistent between bench.v1's
// streaming quantiles and any later causim-trace analysis of the dump.
TEST_P(ObsLiveAllProtocols, OfflineReplayMatchesStreaming) {
  const auto kind = GetParam();
  const SiteId n = 5;
  dsm::ClusterConfig config = config_for(kind, n, 11);

  obs::live::LiveTelemetry online(live_config_for(config));
  online.begin_run(11);
  obs::RingBufferSink ring;
  config.live = &online;
  config.trace_sink = &ring;  // the live layer interposes and forwards
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(n, 11));

  ASSERT_GT(online.matched(), 0u) << to_string(kind);
  EXPECT_EQ(online.unmatched(), 0u) << to_string(kind);
  EXPECT_EQ(ring.dropped(), 0u);

  obs::live::LiveTelemetry offline(live_config_for(config));
  offline.begin_run(11);
  obs::live::replay_events(ring.events(), offline);

  EXPECT_EQ(offline.ops(), online.ops());
  EXPECT_EQ(offline.sends(), online.sends());
  EXPECT_EQ(offline.applies(), online.applies());
  EXPECT_EQ(offline.matched(), online.matched());
  EXPECT_EQ(offline.unmatched(), online.unmatched());

  const auto a = online.visibility_summary();
  const auto b = offline.visibility_summary();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean_us, b.mean_us);
  EXPECT_DOUBLE_EQ(a.max_us, b.max_us);
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p90_us, b.p90_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
  EXPECT_DOUBLE_EQ(a.p999_us, b.p999_us);
  for (SiteId origin = 0; origin < n; ++origin) {
    for (SiteId dest = 0; dest < n; ++dest) {
      EXPECT_EQ(online.pair_histogram(origin, dest).count(),
                offline.pair_histogram(origin, dest).count())
          << to_string(kind) << " pair " << origin << "->" << dest;
    }
  }
}

// Both substrates run the same schedule to quiescence, so every SM send
// finds its activation: matched counts agree and nothing is left
// uncorrelated. Latency magnitudes differ (simulated wire delay vs real
// wall time) but on each substrate the streamed quantiles must track the
// exact sorted-sample oracle.
TEST_P(ObsLiveAllProtocols, SimAndThreadSubstratesAgree) {
  const auto kind = GetParam();
  const SiteId n = 5;
  const std::uint64_t seed = 31;
  const auto schedule = schedule_for(n, seed);

  dsm::ClusterConfig sim_config = config_for(kind, n, seed);
  obs::live::LiveConfig live_config = live_config_for(sim_config);
  live_config.keep_latency_samples = true;
  obs::live::LiveTelemetry sim_live(live_config);
  sim_live.begin_run(seed);
  sim_config.live = &sim_live;
  dsm::Cluster sim_cluster(sim_config);
  sim_cluster.execute(schedule);

  dsm::ClusterConfig thread_config = config_for(kind, n, seed);
  obs::live::LiveTelemetry thread_live(live_config);
  thread_live.begin_run(seed);
  thread_config.live = &thread_live;
  dsm::ThreadCluster thread_cluster(thread_config);
  thread_cluster.execute(schedule);

  EXPECT_GT(sim_live.matched(), 0u) << to_string(kind);
  EXPECT_EQ(sim_live.unmatched(), 0u) << to_string(kind);
  EXPECT_EQ(thread_live.unmatched(), 0u) << to_string(kind);
  EXPECT_EQ(sim_live.matched(), thread_live.matched()) << to_string(kind);
  // Visibility correlates every SM send, including warm-up writes that
  // message stats exclude — so matched is a (schedule-determined) superset
  // of the recorded SM count.
  EXPECT_GE(sim_live.matched(),
            sim_cluster.aggregate_message_stats().of(MessageKind::kSM).count);

  expect_quantiles_match_oracle(sim_live, "sim");
  expect_quantiles_match_oracle(thread_live, "thread");
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ObsLiveAllProtocols,
    ::testing::Values(causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace causim
