// Tests for causim::obs::analysis — the JSON document model, the trace
// reader, log-occupancy sampling (the live sampler's time_sample events),
// and the analysis engine's headline guarantees: a handcrafted schedule
// yields an exact activation latency, the report is a pure function of
// (schedule, seed), and a trace that round-trips through the Chrome JSON
// produces a byte-identical report.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/cluster.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/trace_sink.hpp"
#include "sim/latency.hpp"
#include "topo/topology.hpp"
#include "workload/schedule.hpp"

namespace causim::obs::analysis {
namespace {

/// Attaches a live tracker sampling every `interval` to `config`: its
/// per-site time_sample events are what the report's log occupancy is
/// built from. The tracker must outlive the cluster.
std::unique_ptr<live::LiveTelemetry> attach_sampler(dsm::ClusterConfig& config,
                                                    SimTime interval) {
  live::LiveConfig lc;
  lc.sites = config.sites;
  lc.variables = config.variables;
  lc.sample_interval = interval;
  auto tracker = std::make_unique<live::LiveTelemetry>(lc);
  config.live = tracker.get();
  return tracker;
}

// ---- Json document model ----

TEST(Json, ParsesScalarsContainersAndEscapes) {
  std::string error;
  const Json doc = Json::parse(
      R"({"a\u0041": [1, -2.5, true, null, "x\n\"\\"], "empty": {}})", &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.is_object());
  const Json& arr = doc.at("aA");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_DOUBLE_EQ(arr.at(0).number(), 1.0);
  EXPECT_DOUBLE_EQ(arr.at(1).number(), -2.5);
  EXPECT_TRUE(arr.at(2).boolean());
  EXPECT_TRUE(arr.at(3).is_null());
  EXPECT_EQ(arr.at(4).str(), "x\n\"\\");
  EXPECT_TRUE(doc.at("empty").is_object());
  EXPECT_EQ(doc.at("empty").size(), 0u);
  // Absent lookups stay total and return the shared null.
  EXPECT_TRUE(doc.at("missing").is_null());
  EXPECT_TRUE(arr.at(99).is_null());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"\\q\""}) {
    std::string error;
    const Json doc = Json::parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    EXPECT_TRUE(doc.is_null()) << "non-null for: " << bad;
  }
}

TEST(Json, DumpIsKeySortedAndDeterministic) {
  std::string error;
  const Json a = Json::parse(R"({"b": 1, "a": {"d": 2, "c": 3}})", &error);
  ASSERT_TRUE(error.empty()) << error;
  const Json b = Json::parse(R"({"a": {"c": 3, "d": 2}, "b": 1})", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.dump(), b.dump());
  // Dump re-parses to an equal document.
  EXPECT_EQ(Json::parse(a.dump()), a);
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t\x01"), "a\\\"b\\\\c\\n\\t\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

// ---- handcrafted activation latency ----

// Three fully replicated sites on a deterministic triangle: 0-1 and 1-2
// are 10 ms apart, 0-2 is 200 ms. Site 0 writes x at t=0; site 1 applies
// it at 10 ms, reads it at 40 ms (Opt-Track only tracks genuine
// reads-from dependencies, so the read is what puts x into site 1's
// causal past), and writes the dependent y at 50 ms. At site 2, y's SM
// arrives at 60 ms but x only at 200 ms, so y must buffer for exactly
// 140 ms before the activation predicate lets it apply.
std::vector<TraceEvent> run_triangle(RingBufferSink& sink, SimTime sample_interval = 0) {
  dsm::ClusterConfig config;
  config.sites = 3;
  config.variables = 2;
  config.replication = 0;  // full
  config.protocol = causal::ProtocolKind::kOptTrack;
  config.record_history = false;
  config.trace_sink = &sink;
  std::unique_ptr<live::LiveTelemetry> sampler;
  if (sample_interval > 0) sampler = attach_sampler(config, sample_interval);
  const SimTime near = 10 * kMillisecond;
  const SimTime far = 200 * kMillisecond;
  config.latency_model = std::make_shared<sim::GeoLatency>(
      std::vector<std::vector<SimTime>>{{0, near, far}, {near, 0, near}, {far, near, 0}},
      /*jitter=*/0.0);

  workload::Schedule schedule;
  schedule.per_site.resize(3);
  schedule.per_site[0].push_back({workload::Op::Kind::kWrite, 0, 0, 0, true});
  schedule.per_site[1].push_back(
      {workload::Op::Kind::kRead, 0, 40 * kMillisecond, 0, true});
  schedule.per_site[1].push_back(
      {workload::Op::Kind::kWrite, 1, 50 * kMillisecond, 0, true});

  dsm::Cluster cluster(config);
  cluster.execute(schedule);
  return sink.events();
}

TEST(Analyze, HandcraftedScheduleYieldsExactActivationLatency) {
  RingBufferSink sink;
  const AnalysisReport report = analyze(run_triangle(sink));

  EXPECT_EQ(report.sites, 3u);
  ASSERT_EQ(report.activation_total.buffered, 1u);
  ASSERT_EQ(report.activation_total.latency_us.count(), 1u);
  EXPECT_DOUBLE_EQ(report.activation_total.latency_us.mean(), 140000.0);
  EXPECT_DOUBLE_EQ(report.activation_total.latency_us.min(), 140000.0);
  EXPECT_DOUBLE_EQ(report.activation_total.latency_us.max(), 140000.0);
  // The wait happened at site 2; the other sites never buffered.
  ASSERT_TRUE(report.activation_site.count(2));
  EXPECT_EQ(report.activation_site.at(2).buffered, 1u);
  for (const auto& [site, a] : report.activation_site) {
    if (site != 2) {
      EXPECT_EQ(a.buffered, 0u) << "site " << site;
    }
  }
  // Two writes under full replication: each SM goes to both other sites.
  const auto& sm = report.send_kind[static_cast<std::size_t>(MessageKind::kSM)];
  EXPECT_EQ(sm.count, 4u);
  EXPECT_GT(sm.bytes, 0u);
}

// ---- log-occupancy sampling ----

TEST(LogSampler, EmitsOccupancySeriesWhenEnabled) {
  RingBufferSink sink;
  const auto events = run_triangle(sink, /*sample_interval=*/20 * kMillisecond);
  std::size_t samples = 0;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kTimeSample) {
      ++samples;
      EXPECT_LT(e.site, 3u);
    }
  }
  // The run spans 260 ms (write at 50 ms + 10 ms hop + 200 ms hop), so a
  // 20 ms sampler fires at least a dozen rounds across 3 sites.
  EXPECT_GE(samples, 3u * 10u);

  const AnalysisReport report = analyze(events);
  ASSERT_EQ(report.occupancy.size(), 3u);
  for (const auto& [site, occ] : report.occupancy) {
    EXPECT_GT(occ.samples, 0u) << "site " << site;
    EXPECT_EQ(occ.samples, occ.entries.count());
    EXPECT_GT(occ.bytes.max(), 0.0) << "site " << site;
    EXPECT_FALSE(occ.series.empty());
  }
}

TEST(LogSampler, DisabledByDefault) {
  RingBufferSink sink;
  const auto events = run_triangle(sink);
  for (const TraceEvent& e : events) {
    EXPECT_NE(e.type, TraceEventType::kTimeSample);
  }
  EXPECT_TRUE(analyze(events).occupancy.empty());
}

TEST(LogSampler, SeriesDownsamplesToBoundedPoints) {
  RingBufferSink sink;
  const auto events = run_triangle(sink, /*sample_interval=*/kMillisecond);
  AnalysisOptions options;
  options.max_series_points = 16;
  const AnalysisReport report = analyze(events, options);
  for (const auto& [site, occ] : report.occupancy) {
    EXPECT_GT(occ.samples, 16u) << "site " << site;
    EXPECT_LE(occ.series.size(), 16u) << "site " << site;
  }
}

// ---- determinism & round-trip ----

/// A partial-replication Opt-Track run with the 100 ms sampler. `geo`
/// adds batching and a two-cell topology with the gateway on, so the trace
/// also carries batch_flush and gateway_forward events.
std::vector<TraceEvent> run_partial(std::uint64_t seed, RingBufferSink& sink,
                                    bool geo = false) {
  dsm::ClusterConfig config;
  config.sites = 4;
  config.variables = 20;
  config.replication = 2;
  config.protocol = causal::ProtocolKind::kOptTrack;
  config.record_history = false;
  config.seed = seed;
  config.trace_sink = &sink;
  const auto sampler = attach_sampler(config, 100 * kMillisecond);
  if (geo) {
    config.batch.enabled = true;
    config.batch.max_messages = 4;
    topo::LinkProfile inter;
    inter.latency_lo = inter.latency_hi = 40 * kMillisecond;
    config.topology = topo::Topology::blocks(config.sites, 2, topo::LinkProfile{}, inter);
    config.gateway.enabled = true;
    config.gateway.max_messages = 4;
    config.gateway.max_delay = 5 * kMillisecond;
  }

  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 60;
  wl.seed = seed;

  dsm::Cluster cluster(config);
  cluster.execute(workload::generate_schedule(config.sites, wl));
  return sink.events();
}

TEST(Analyze, ReportIsAPureFunctionOfScheduleAndSeed) {
  RingBufferSink s1, s2, s3;
  const std::string r1 = analyze(run_partial(7, s1)).json();
  const std::string r2 = analyze(run_partial(7, s2)).json();
  const std::string r3 = analyze(run_partial(8, s3)).json();
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1, r3);
}

TEST(Analyze, TraceJsonRoundTripMatchesInMemoryReport) {
  // The geo run's trace holds every layer's event types, so a name the
  // reader does not know shows up as a lost event.
  for (const bool geo : {false, true}) {
    RingBufferSink sink;
    const auto events = run_partial(7, sink, geo);
    for (const TraceEventType t :
         {TraceEventType::kBatchFlush, TraceEventType::kGatewayForward}) {
      const bool seen = std::any_of(events.begin(), events.end(),
                                    [t](const TraceEvent& e) { return e.type == t; });
      EXPECT_EQ(seen, geo) << to_string(t);
    }
    AnalysisOptions options;
    options.dropped = sink.dropped();
    const std::string direct = analyze(events, options).json();

    std::string error;
    const Json doc = Json::parse(chrome_trace_string(events, sink.dropped()), &error);
    ASSERT_TRUE(error.empty()) << error;
    const auto trace = read_chrome_trace(doc, &error);
    ASSERT_TRUE(trace.has_value()) << error;
    EXPECT_EQ(trace->events.size(), events.size()) << "geo=" << geo;
    AnalysisOptions rt_options;
    rt_options.dropped = trace->dropped;
    EXPECT_EQ(analyze(trace->events, rt_options).json(), direct) << "geo=" << geo;
  }
}

TEST(Analyze, ReportJsonParsesAndCarriesTheSchema) {
  RingBufferSink sink;
  const AnalysisReport report = analyze(run_partial(7, sink));
  std::string error;
  const Json doc = Json::parse(report.json(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.at("schema").str(), "causim.analysis.v1");
  EXPECT_DOUBLE_EQ(doc.at("events").number(),
                   static_cast<double>(report.events));
  EXPECT_TRUE(doc.at("activation").at("total").at("latency_us").contains("p99"));
  EXPECT_GT(doc.at("metadata_attribution").at("per_kind").at("SM").at("count").number(),
            0.0);
  EXPECT_EQ(doc.at("log_occupancy").at("per_site").size(), 4u);
}

// ---- structural diff ----

Json parse_ok(const char* text) {
  std::string error;
  Json doc = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  return doc;
}

std::string diff_string(const Json& a, const Json& b) {
  std::ostringstream out;
  write_json_diff(out, a, b);
  return out.str();
}

TEST(Diff, EqualDocumentsPassThroughUnchanged) {
  const Json a = parse_ok(R"({"x": 1, "y": [1, 2], "s": "same"})");
  EXPECT_EQ(Json::parse(diff_string(a, a)), a);
}

TEST(Diff, NumbersGetDeltasAndMissingKeysGetNulls) {
  const Json a = parse_ok(R"({"x": 1, "y": {"z": 2}, "s": "same", "arr": [1, 2]})");
  const Json b =
      parse_ok(R"({"x": 3, "y": {"z": 2}, "s": "same", "arr": [1, 5], "n": true})");
  const Json diff = parse_ok(diff_string(a, b).c_str());
  EXPECT_DOUBLE_EQ(diff.at("x").at("a").number(), 1.0);
  EXPECT_DOUBLE_EQ(diff.at("x").at("b").number(), 3.0);
  EXPECT_DOUBLE_EQ(diff.at("x").at("delta").number(), 2.0);
  EXPECT_DOUBLE_EQ(diff.at("y").at("z").number(), 2.0);  // unchanged subtree
  EXPECT_EQ(diff.at("s").str(), "same");
  EXPECT_DOUBLE_EQ(diff.at("arr").at(0).number(), 1.0);
  EXPECT_DOUBLE_EQ(diff.at("arr").at(1).at("delta").number(), 3.0);
  EXPECT_TRUE(diff.at("n").at("a").is_null());
  EXPECT_TRUE(diff.at("n").at("b").boolean());
}

TEST(Diff, ArraysOfDifferentLengthCollapseToLengths) {
  const Json diff =
      parse_ok(diff_string(parse_ok("[1, 2]"), parse_ok("[1, 2, 3]")).c_str());
  EXPECT_DOUBLE_EQ(diff.at("a_length").number(), 2.0);
  EXPECT_DOUBLE_EQ(diff.at("b_length").number(), 3.0);
}

TEST(Diff, TwoProtocolReportsDiffer) {
  RingBufferSink s1, s2;
  const std::string opt = analyze(run_partial(7, s1)).json();

  dsm::ClusterConfig config;
  config.sites = 4;
  config.variables = 20;
  config.replication = 0;  // Full-Track requires full replication
  config.protocol = causal::ProtocolKind::kFullTrack;
  config.record_history = false;
  config.seed = 7;
  config.trace_sink = &s2;
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 60;
  wl.seed = 7;
  dsm::Cluster cluster(config);
  cluster.execute(workload::generate_schedule(config.sites, wl));
  const std::string full = analyze(s2.events()).json();

  const Json diff = parse_ok(diff_string(parse_ok(opt.c_str()), parse_ok(full.c_str())).c_str());
  // Same schema on both sides passes through; the SM byte attribution must
  // differ between Opt-Track (partial) and Full-Track (full replication).
  EXPECT_EQ(diff.at("schema").str(), "causim.analysis.v1");
  const Json& sm = diff.at("metadata_attribution").at("per_kind").at("SM");
  EXPECT_TRUE(sm.at("bytes").contains("delta"));
}

}  // namespace
}  // namespace causim::obs::analysis
