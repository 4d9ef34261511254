// Tests for causim::obs::analysis provenance — the per-operation causal
// dependency DAGs and critical-path decomposition behind `causim-trace
// explain` / `causim-trace critpath`.
//
//  - A handcrafted 3-site trace with a known dependency chain must yield
//    the exact segment durations, the exact DAG shape (blocker chain,
//    resolved predecessors), and byte-identical report JSON.
//  - On real cluster runs of all four protocols every activated op's
//    segments must sum to its measured visibility latency, every buffered
//    op's kDepSatisfied chain must tile [receipt, apply) exactly, and the
//    analyzer must close every chain (unresolved == 0, sum_mismatch == 0).
//  - The live critpath instrument (obs::live) is the streaming fold of the
//    same decomposition: replaying the recorded trace into a fresh
//    instance must reproduce the online summary exactly, and its totals
//    and the live visibility latency must agree with the offline
//    provenance report.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "obs/analysis/provenance.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

using obs::TraceEvent;
using obs::TraceEventType;
using obs::analysis::OpRecord;
using obs::analysis::ProvenanceReport;
using obs::analysis::analyze_provenance;

TraceEvent ev(TraceEventType type, SiteId site, SiteId peer, SimTime ts,
              SimTime dur = 0, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0, std::uint64_t d = 0) {
  TraceEvent e;
  e.type = type;
  e.kind = MessageKind::kSM;
  e.site = site;
  e.peer = peer;
  e.ts = ts;
  e.dur = dur;
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
  return e;
}

// Three sites, three writes, one known chain. Write A = 0:1 (var 7) reaches
// site 2 at t=500 but must wait for two predecessors from site 1: first the
// ordinal blocker "writer 1 apply #1" (Full-Track style), resolved by B1 =
// 1:1 applying at 600, then the concrete write 1:2 (B2), applying at 750.
//
//   A:  issue 90, send 100, wire 400 -> recv 500, apply 750
//       sched 10 | wire 400 | arq 0 | dep_wait 250 (100 on B1 + 150 on B2)
//   B1: issue 40, send 50, wire 550 -> applied on arrival at 600
//   B2: issue 60, send 70, wire 680 -> applied on arrival at 750
std::vector<TraceEvent> known_chain_trace() {
  using obs::pack_blocking_dep;
  using obs::pack_write_id;
  const std::uint64_t a = pack_write_id({0, 1});
  const std::uint64_t b1 = pack_write_id({1, 1});
  const std::uint64_t b2 = pack_write_id({1, 2});

  std::vector<TraceEvent> t;
  t.push_back(ev(TraceEventType::kOpIssue, 1, kInvalidSite, 40, 0, 7, 1));
  t.push_back(ev(TraceEventType::kSend, 1, 2, 50, 0, 7, 64, b1));
  t.push_back(ev(TraceEventType::kWireDelay, 1, 2, 50, 550, 0, 64));
  t.push_back(ev(TraceEventType::kOpIssue, 1, kInvalidSite, 60, 0, 8, 1));
  t.push_back(ev(TraceEventType::kSend, 1, 2, 70, 0, 8, 64, b2));
  t.push_back(ev(TraceEventType::kWireDelay, 1, 2, 70, 680, 0, 64));
  t.push_back(ev(TraceEventType::kOpIssue, 0, kInvalidSite, 90, 0, 7, 1));
  t.push_back(ev(TraceEventType::kSend, 0, 2, 100, 0, 7, 64, a));
  t.push_back(ev(TraceEventType::kWireDelay, 0, 2, 100, 400, 0, 64));
  t.push_back(ev(TraceEventType::kDeliver, 2, 0, 500, 0, 0, 64));
  t.push_back(ev(TraceEventType::kBuffered, 2, 0, 500, 0, 7, 1, a,
                 pack_blocking_dep(1, 1, true)));
  // B1 applies on arrival; the runtime emits the resolving kActivated
  // before the kDepSatisfied it unblocks (the ordinal join relies on it).
  t.push_back(ev(TraceEventType::kActivated, 2, 1, 600, 0, 7, 0, b1));
  t.push_back(ev(TraceEventType::kDepSatisfied, 2, 0, 500, 100, 7, a,
                 pack_blocking_dep(1, 1, true), b2));
  t.push_back(ev(TraceEventType::kActivated, 2, 1, 750, 0, 8, 0, b2));
  t.push_back(ev(TraceEventType::kDepSatisfied, 2, 0, 600, 150, 7, a,
                 pack_blocking_dep(1, 2, false), 0));
  t.push_back(ev(TraceEventType::kActivated, 2, 0, 500, 250, 7, 1, a));
  return t;
}

TEST(Provenance, KnownChainSegmentsAndDagShape) {
  const ProvenanceReport report = analyze_provenance(known_chain_trace());

  EXPECT_EQ(report.sites, 3);
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.sm_sends, 3u);
  EXPECT_EQ(report.activated, 3u);
  EXPECT_EQ(report.buffered, 1u);
  EXPECT_EQ(report.unmatched_sends, 0u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(report.sum_mismatch, 0u);

  const OpRecord* a = report.find_op({0, 1}, 2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->t_issue, 90);
  EXPECT_EQ(a->t_send, 100);
  EXPECT_EQ(a->t_recv, 500);
  EXPECT_EQ(a->t_apply, 750);
  EXPECT_EQ(a->sched, 10);
  EXPECT_EQ(a->wire, 400);
  EXPECT_EQ(a->arq, 0);
  EXPECT_EQ(a->dep_wait, 250);
  EXPECT_EQ(a->apply, 0);
  EXPECT_EQ(a->visibility(), 650);
  EXPECT_TRUE(a->buffered);
  EXPECT_EQ(a->wire + a->arq + a->dep_wait + a->apply, a->visibility());

  // The chain: first the ordinal blocker (resolved to B1 through the
  // per-destination apply list), then the concrete write 1:2.
  ASSERT_EQ(a->segments.size(), 2u);
  EXPECT_EQ(a->segments[0].since, 500);
  EXPECT_EQ(a->segments[0].wait, 100);
  EXPECT_EQ(a->segments[0].blocker_wid, obs::pack_write_id({1, 1}));
  EXPECT_EQ(a->segments[1].since, 600);
  EXPECT_EQ(a->segments[1].wait, 150);
  EXPECT_EQ(a->segments[1].blocker_wid, obs::pack_write_id({1, 2}));

  const OpRecord* pred1 = report.predecessor(*a, a->segments[0]);
  ASSERT_NE(pred1, nullptr);
  EXPECT_EQ(pred1->write, (WriteId{1, 1}));
  EXPECT_EQ(pred1->visibility(), 550);
  const OpRecord* pred2 = report.predecessor(*a, a->segments[1]);
  ASSERT_NE(pred2, nullptr);
  EXPECT_EQ(pred2->write, (WriteId{1, 2}));
  EXPECT_EQ(pred2->visibility(), 680);

  // Worst-first ordering: B2 (680) > A (650) > B1 (550).
  ASSERT_EQ(report.top_ops.size(), 3u);
  EXPECT_EQ(report.ops[report.top_ops[0]].write, (WriteId{1, 2}));
  EXPECT_EQ(report.ops[report.top_ops[1]].write, (WriteId{0, 1}));
  EXPECT_EQ(report.ops[report.top_ops[2]].write, (WriteId{1, 1}));
  EXPECT_EQ(report.worst_op()->write, (WriteId{1, 2}));

  // Every microsecond of dependency wait is attributed to writer 1.
  ASSERT_EQ(report.blocked_on_writer.size(), 1u);
  const auto& blocked = report.blocked_on_writer.at(1);
  EXPECT_EQ(blocked.segments, 2u);
  EXPECT_DOUBLE_EQ(blocked.wait_us, 250.0);
}

TEST(Provenance, KnownChainReportJsonIsByteIdentical) {
  const std::vector<TraceEvent> trace = known_chain_trace();
  std::ostringstream first, second;
  analyze_provenance(trace).write_json(first);
  analyze_provenance(trace).write_json(second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"schema\": \"causim.provenance.v1\""),
            std::string::npos);
}

TEST(Provenance, ExplainRendersChainAndCriticalPath) {
  const ProvenanceReport report = analyze_provenance(known_chain_trace());
  std::ostringstream out;
  ASSERT_TRUE(report.write_explain(out, {0, 1}, SiteId{2}));
  const std::string text = out.str();
  EXPECT_NE(text.find("write 0:1"), std::string::npos);
  EXPECT_NE(text.find("visibility 650 us"), std::string::npos);
  EXPECT_NE(text.find("blocked on writer 1 apply #1 -> write 1:1"),
            std::string::npos);
  EXPECT_NE(text.find("blocked on write 1:2"), std::string::npos);
  // The critical path recurses into the predecessor that resolved last.
  EXPECT_NE(text.find("gated 150 us by:"), std::string::npos);
  EXPECT_NE(text.find("write 1:2 (var 8)"), std::string::npos);
  // An absent write is reported, not invented.
  std::ostringstream none;
  EXPECT_FALSE(report.write_explain(none, {5, 9}));
}

TEST(Provenance, ConcatenatedRunsSplitIntoEpochs) {
  // Multi-seed cells append several runs into one sink; the emission clock
  // jumping backwards marks the boundary. Same-id writes in different
  // epochs must not be joined.
  std::vector<TraceEvent> twice = known_chain_trace();
  const std::vector<TraceEvent> again = known_chain_trace();
  twice.insert(twice.end(), again.begin(), again.end());

  const ProvenanceReport report = analyze_provenance(twice);
  EXPECT_EQ(report.epochs, 2u);
  EXPECT_EQ(report.sm_sends, 6u);
  EXPECT_EQ(report.activated, 6u);
  EXPECT_EQ(report.buffered, 2u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(report.sum_mismatch, 0u);
  // Both copies of A resolve inside their own epoch.
  const auto deliveries = report.ops_of({0, 1});
  ASSERT_EQ(deliveries.size(), 2u);
  for (const OpRecord* op : deliveries) {
    ASSERT_EQ(op->segments.size(), 2u);
    EXPECT_EQ(op->dep_wait, 250);
  }
}

TEST(Provenance, ThreadSkewedEmissionStaysOneEpoch) {
  // Threads stamp an event, then emit it a few µs later, so emission is
  // not monotone inside one run: site 0's issue at 90 reaching the sink
  // before site 1's wire delay at 70 must not start a new epoch.
  std::vector<TraceEvent> trace = known_chain_trace();
  std::swap(trace[5], trace[6]);
  ASSERT_EQ(trace[5].ts, 90);
  ASSERT_EQ(trace[6].ts, 70);

  const ProvenanceReport report = analyze_provenance(trace);
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.activated, 3u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_EQ(report.sum_mismatch, 0u);
  const OpRecord* a = report.find_op({0, 1}, 2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->dep_wait, 250);
  EXPECT_EQ(a->visibility(), 650);
}

// -- real cluster runs ------------------------------------------------------

dsm::ClusterConfig wide_latency_config(causal::ProtocolKind kind, SiteId n,
                                       std::uint64_t seed) {
  dsm::ClusterConfig c;
  c.sites = n;
  c.variables = 20;
  c.replication = causal::requires_full_replication(kind)
                      ? 0
                      : bench_support::partial_replication_factor(n);
  c.protocol = kind;
  c.seed = seed;
  // A wide delay spread makes dependency arrivals overtake each other, so
  // a healthy fraction of SMs buffers (same trick as test_cluster.cpp).
  c.latency_lo = 1 * kMillisecond;
  c.latency_hi = 2000 * kMillisecond;
  return c;
}

workload::Schedule wide_latency_schedule(SiteId n, std::uint64_t seed) {
  workload::WorkloadParams params;
  params.variables = 20;
  params.write_rate = 0.6;
  params.ops_per_site = 120;
  params.seed = seed;
  return workload::generate_schedule(n, params);
}

class ProvenanceAllProtocols : public ::testing::TestWithParam<causal::ProtocolKind> {};

// The acceptance invariant of the subsystem: for every activated SM the
// reconstructed segments sum to the measured visibility latency, and every
// buffered SM's blocker chain tiles [receipt, apply) exactly — no
// microsecond is unattributed, none is counted twice.
TEST_P(ProvenanceAllProtocols, SegmentsSumToVisibilityOnRealRuns) {
  const auto kind = GetParam();
  const SiteId n = 6;
  obs::RingBufferSink sink;
  dsm::ClusterConfig config = wide_latency_config(kind, n, 7);
  config.trace_sink = &sink;
  dsm::Cluster cluster(config);
  cluster.execute(wide_latency_schedule(n, 7));
  ASSERT_EQ(sink.dropped(), 0u);

  const ProvenanceReport report = analyze_provenance(sink.events());
  ASSERT_GT(report.sm_sends, 0u) << to_string(kind);
  EXPECT_EQ(report.activated, report.sm_sends) << to_string(kind);
  EXPECT_EQ(report.unmatched_sends, 0u) << to_string(kind);
  EXPECT_EQ(report.unresolved, 0u) << to_string(kind);
  EXPECT_EQ(report.sum_mismatch, 0u) << to_string(kind);
  EXPECT_GT(report.buffered, 0u) << to_string(kind);
  EXPECT_EQ(report.epochs, 1u);

  for (const OpRecord& op : report.ops) {
    ASSERT_TRUE(op.activated);
    EXPECT_EQ(op.wire + op.arq + op.dep_wait + op.apply, op.visibility());
    // Clean wire, instantaneous applies: the transit is all first-hop
    // delay and the residual segments are exactly zero.
    EXPECT_EQ(op.wire, op.t_recv - op.t_send);
    EXPECT_EQ(op.arq, 0);
    EXPECT_EQ(op.apply, 0);
    if (op.buffered) {
      ASSERT_FALSE(op.segments.empty());
      EXPECT_EQ(op.segments.front().since, op.t_recv);
      SimTime tiled = 0;
      SimTime cursor = op.t_recv;
      for (const auto& s : op.segments) {
        EXPECT_EQ(s.since, cursor);  // segments are contiguous
        cursor = s.since + s.wait;
        tiled += s.wait;
      }
      EXPECT_EQ(tiled, op.dep_wait);
      EXPECT_EQ(cursor, op.t_apply);
    } else {
      EXPECT_TRUE(op.segments.empty());
      EXPECT_EQ(op.dep_wait, 0);
    }
  }
}

// Identical (schedule, seed) runs must serialize byte-identical provenance
// reports — the same determinism contract the raw trace already has.
TEST_P(ProvenanceAllProtocols, ReportIsDeterministicAcrossRuns) {
  const auto kind = GetParam();
  const SiteId n = 5;
  std::string reports[2];
  for (std::string& r : reports) {
    obs::RingBufferSink sink;
    dsm::ClusterConfig config = wide_latency_config(kind, n, 9);
    config.trace_sink = &sink;
    dsm::Cluster cluster(config);
    cluster.execute(wide_latency_schedule(n, 9));
    ASSERT_EQ(sink.dropped(), 0u);
    std::ostringstream out;
    analyze_provenance(sink.events()).write_json(out);
    r = out.str();
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
}

// The live critpath instrument is the bounded-memory streaming fold of the
// same decomposition. Replaying the recorded trace into a fresh instance
// must reproduce the online digest exactly, and its totals must agree with
// the offline provenance report on every shared quantity.
TEST_P(ProvenanceAllProtocols, LiveCritpathMatchesReplayAndOfflineReport) {
  const auto kind = GetParam();
  const SiteId n = 6;
  dsm::ClusterConfig config = wide_latency_config(kind, n, 7);

  obs::live::LiveConfig lc;
  lc.sites = config.sites;
  lc.variables = config.variables;
  lc.critpath = true;
  obs::live::LiveTelemetry online(lc);
  online.begin_run(7);
  obs::RingBufferSink ring;
  config.live = &online;
  config.trace_sink = &ring;  // the live layer interposes and forwards
  dsm::Cluster cluster(config);
  cluster.execute(wide_latency_schedule(n, 7));
  ASSERT_EQ(ring.dropped(), 0u);

  obs::live::LiveTelemetry offline(lc);
  offline.begin_run(7);
  obs::live::replay_events(ring.events(), offline);

  const auto a = online.critpath_summary();
  const auto b = offline.critpath_summary();
  ASSERT_TRUE(a.enabled);
  EXPECT_GT(a.ops, 0u);
  EXPECT_GT(a.dep_segments, 0u) << to_string(kind);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.dep_segments, b.dep_segments);
  EXPECT_EQ(a.dropped_first_tx, b.dropped_first_tx);
  const auto expect_segment_eq = [](const obs::live::CritpathSegment& x,
                                    const obs::live::CritpathSegment& y) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_DOUBLE_EQ(x.total_us, y.total_us);
    EXPECT_DOUBLE_EQ(x.mean_us, y.mean_us);
    EXPECT_DOUBLE_EQ(x.p50_us, y.p50_us);
    EXPECT_DOUBLE_EQ(x.p90_us, y.p90_us);
    EXPECT_DOUBLE_EQ(x.p99_us, y.p99_us);
    EXPECT_DOUBLE_EQ(x.max_us, y.max_us);
  };
  expect_segment_eq(a.wire, b.wire);
  expect_segment_eq(a.arq, b.arq);
  expect_segment_eq(a.dep_wait, b.dep_wait);
  ASSERT_EQ(a.blocked_on_writer_us.size(), b.blocked_on_writer_us.size());
  for (std::size_t i = 0; i < a.blocked_on_writer_us.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.blocked_on_writer_us[i], b.blocked_on_writer_us[i]);
  }
  ASSERT_EQ(a.top_blockers.size(), b.top_blockers.size());
  for (std::size_t i = 0; i < a.top_blockers.size(); ++i) {
    EXPECT_EQ(a.top_blockers[i].writer, b.top_blockers[i].writer);
    EXPECT_EQ(a.top_blockers[i].value, b.top_blockers[i].value);
    EXPECT_EQ(a.top_blockers[i].ordinal, b.top_blockers[i].ordinal);
    EXPECT_EQ(a.top_blockers[i].segments, b.top_blockers[i].segments);
    EXPECT_DOUBLE_EQ(a.top_blockers[i].wait_us, b.top_blockers[i].wait_us);
    EXPECT_DOUBLE_EQ(a.top_blockers[i].error_us, b.top_blockers[i].error_us);
  }

  // Offline report agreement: both paths fold the same events, so every
  // shared total is equal — streaming loses only per-op identity, never
  // mass.
  const ProvenanceReport report = analyze_provenance(ring.events());
  EXPECT_EQ(a.ops, report.activated);
  std::size_t segments = 0;
  for (const OpRecord& op : report.ops) segments += op.segments.size();
  EXPECT_EQ(a.dep_segments, segments);
  EXPECT_EQ(a.wire.count, report.wire.count);
  EXPECT_DOUBLE_EQ(a.wire.total_us, report.wire.total_us);
  EXPECT_EQ(a.arq.count, report.arq.count);
  EXPECT_DOUBLE_EQ(a.arq.total_us, report.arq.total_us);
  EXPECT_EQ(a.dep_wait.count, report.dep_wait.count);
  EXPECT_DOUBLE_EQ(a.dep_wait.total_us, report.dep_wait.total_us);
  // One visibility definition: both folds measure send to apply, so the
  // buffered wait is inside the live latency too.
  const stats::Histogram visibility = online.visibility_histogram();
  EXPECT_EQ(visibility.count(), report.visibility.count);
  EXPECT_DOUBLE_EQ(visibility.summary().sum(), report.visibility.total_us);
  for (SiteId w = 0; w < n; ++w) {
    const auto it = report.blocked_on_writer.find(w);
    const double offline_wait =
        it == report.blocked_on_writer.end() ? 0.0 : it->second.wait_us;
    EXPECT_DOUBLE_EQ(a.blocked_on_writer_us[w], offline_wait) << "writer " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ProvenanceAllProtocols,
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
