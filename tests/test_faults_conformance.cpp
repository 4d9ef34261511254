// Seeded conformance fuzz suite for the fault stack: every protocol, under
// every drop rate, over many seeds, must (a) remain causally consistent by
// the checker, (b) deliver every update exactly once in FIFO order (the
// reliability layer quiesces with nothing unacked — enforced by a CHECK
// inside Cluster::execute and re-asserted here), and (c) send exactly the
// protocol-level messages the fault-free run of the same seed sends: the
// reliability layer hides the loss, so the paper's message *counts* are
// invariant under faults (per-message meta bytes may drift, because what a
// site piggybacks depends on arrival order — that is the protocol's own
// behaviour, not a leak from the fault stack).
//
// Seed count scales with CAUSIM_FAULT_SEEDS (default 50; CI's PR lane sets
// a short value, the fault-matrix lane the full one).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/cluster.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

int seed_count() {
  if (const char* env = std::getenv("CAUSIM_FAULT_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 50;
}

dsm::ClusterConfig base_config(causal::ProtocolKind protocol, std::uint64_t seed) {
  dsm::ClusterConfig config;
  config.sites = 4;
  config.variables = 12;
  config.replication = causal::requires_full_replication(protocol) ? 0 : 2;
  config.protocol = protocol;
  config.seed = seed;
  config.record_history = true;
  return config;
}

workload::Schedule schedule_for(std::uint64_t seed) {
  workload::WorkloadParams wl;
  wl.variables = 12;
  wl.write_rate = 0.5;
  wl.ops_per_site = 30;
  wl.seed = seed;
  return workload::generate_schedule(4, wl);
}

struct Outcome {
  std::array<std::uint64_t, kAllMessageKinds.size()> counts{};
  std::array<std::uint64_t, kAllMessageKinds.size()> meta_bytes{};
  bool causal_ok = false;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
};

Outcome run_once(causal::ProtocolKind protocol, double drop_rate,
                 std::uint64_t seed,
                 const net::ReliableConfig& reliable = {}) {
  dsm::ClusterConfig config = base_config(protocol, seed);
  if (drop_rate > 0.0) config.fault_plan = faults::FaultPlan::uniform_drop(drop_rate);
  config.reliable_config = reliable;
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(seed));

  Outcome outcome;
  const stats::MessageStats stats = cluster.aggregate_message_stats();
  for (const MessageKind kind : kAllMessageKinds) {
    outcome.counts[static_cast<std::size_t>(kind)] = stats.of(kind).count;
    outcome.meta_bytes[static_cast<std::size_t>(kind)] = stats.of(kind).meta_bytes;
  }
  outcome.causal_ok = cluster.check().ok();
  if (cluster.injector() != nullptr) outcome.drops = cluster.injector()->drops();
  if (cluster.reliable() != nullptr) {
    // execute() already CHECKed quiescent(); re-assert the invariant the
    // suite advertises: exactly-once delivery means nothing left unacked.
    EXPECT_TRUE(cluster.reliable()->quiescent());
    outcome.retransmits = cluster.reliable()->retransmits();
  }
  return outcome;
}

/// The matrix body: for every seed, a fault-free baseline and one faulty
/// run per drop rate; causal consistency always, counts always equal. The
/// `reliable` knobs select the ARQ policy under test — the conformance
/// contract is policy-independent, so the matrix runs once per mode.
void run_matrix(causal::ProtocolKind protocol,
                const net::ReliableConfig& reliable = {}) {
  const int seeds = seed_count();
  const double rates[] = {0.10, 0.30, 0.50};
  std::uint64_t total_drops = 0;
  std::uint64_t total_retransmits = 0;
  for (int s = 1; s <= seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const Outcome baseline = run_once(protocol, 0.0, seed);
    ASSERT_TRUE(baseline.causal_ok)
        << to_string(protocol) << " violates causality fault-free, seed " << s;
    for (const double rate : rates) {
      const Outcome faulty = run_once(protocol, rate, seed, reliable);
      EXPECT_TRUE(faulty.causal_ok) << to_string(protocol) << " seed " << s
                                    << " drop " << rate << ": causal violation";
      // Counts are invariant for every protocol. Meta *bytes* are only
      // invariant where per-message meta is fixed-size (Full-Track's
      // matrix, optP's vector); the KS-log protocols piggyback by
      // arrival order, which faults legitimately perturb.
      const bool fixed_meta = protocol == causal::ProtocolKind::kFullTrack ||
                              protocol == causal::ProtocolKind::kOptP;
      for (const MessageKind kind : kAllMessageKinds) {
        EXPECT_EQ(faulty.counts[static_cast<std::size_t>(kind)],
                  baseline.counts[static_cast<std::size_t>(kind)])
            << to_string(protocol) << " seed " << s << " drop " << rate << ": "
            << to_string(kind) << " count diverged from the fault-free run";
        if (fixed_meta) {
          EXPECT_EQ(faulty.meta_bytes[static_cast<std::size_t>(kind)],
                    baseline.meta_bytes[static_cast<std::size_t>(kind)])
              << to_string(protocol) << " seed " << s << " drop " << rate
              << ": " << to_string(kind) << " meta bytes diverged";
        }
      }
      total_drops += faulty.drops;
      total_retransmits += faulty.retransmits;
    }
  }
  // The matrix is vacuous if the injector never fired.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_retransmits, 0u);
}

TEST(FaultConformance, FullTrackMatrix) {
  run_matrix(causal::ProtocolKind::kFullTrack);
}
TEST(FaultConformance, OptTrackMatrix) {
  run_matrix(causal::ProtocolKind::kOptTrack);
}
TEST(FaultConformance, OptTrackCrpMatrix) {
  run_matrix(causal::ProtocolKind::kOptTrackCrp);
}
TEST(FaultConformance, OptPMatrix) {
  run_matrix(causal::ProtocolKind::kOptP);
}

// The same contract must hold under selective repeat + adaptive RTO — the
// upgraded ARQ engine changes which frames cross the wire, never what the
// protocols above it observe.
net::ReliableConfig sr_adaptive() {
  net::ReliableConfig reliable;
  reliable.arq = net::ArqMode::kSelectiveRepeat;
  reliable.adaptive_rto = true;
  return reliable;
}

TEST(FaultConformance, FullTrackMatrixSelectiveRepeatAdaptive) {
  run_matrix(causal::ProtocolKind::kFullTrack, sr_adaptive());
}
TEST(FaultConformance, OptTrackMatrixSelectiveRepeatAdaptive) {
  run_matrix(causal::ProtocolKind::kOptTrack, sr_adaptive());
}
TEST(FaultConformance, OptTrackCrpMatrixSelectiveRepeatAdaptive) {
  run_matrix(causal::ProtocolKind::kOptTrackCrp, sr_adaptive());
}
TEST(FaultConformance, OptPMatrixSelectiveRepeatAdaptive) {
  run_matrix(causal::ProtocolKind::kOptP, sr_adaptive());
}

// ---- Equivalence: the layer is invisible when disabled ----

/// With an empty fault plan and reliable_channel off, no fault stack is
/// built at all — the run must be byte-for-byte the run it was before the
/// subsystem existed. Two identical seeded runs produce byte-identical
/// analysis reports, the stack accessors stay null, and the report's
/// "faults" section is all zeros.
TEST(FaultEquivalence, DisabledStackLeavesReportByteIdentical) {
  const auto report_json = [](obs::analysis::AnalysisReport* out) {
    dsm::ClusterConfig config = base_config(causal::ProtocolKind::kOptTrack, 17);
    obs::RingBufferSink sink;
    config.trace_sink = &sink;
    obs::live::LiveConfig live_config;
    live_config.sites = config.sites;
    live_config.variables = config.variables;
    live_config.sample_interval = 50 * kMillisecond;
    obs::live::LiveTelemetry sampler(live_config);
    config.live = &sampler;
    dsm::Cluster cluster(config);
    EXPECT_EQ(cluster.injector(), nullptr);
    EXPECT_EQ(cluster.reliable(), nullptr);
    EXPECT_EQ(&cluster.edge(), &cluster.transport());
    cluster.execute(schedule_for(17));
    const auto report = obs::analysis::analyze(sink.events());
    if (out != nullptr) *out = report;
    return report.json();
  };
  obs::analysis::AnalysisReport report;
  const std::string first = report_json(&report);
  const std::string second = report_json(nullptr);
  EXPECT_EQ(first, second);
  EXPECT_EQ(report.faults_total.drops, 0u);
  EXPECT_EQ(report.faults_total.retransmits, 0u);
  EXPECT_TRUE(report.faults_site.empty());
}

/// Protocol-level msg.* metrics are identical between a faulty and a
/// fault-free run of the same seed; fault activity appears only under the
/// faults.* / net.reliable.* namespaces, and those namespaces do not even
/// exist in a fault-free export.
TEST(FaultEquivalence, FaultActivityStaysOutOfProtocolMetrics) {
  const auto metrics_for = [](double drop_rate) {
    dsm::ClusterConfig config = base_config(causal::ProtocolKind::kOptTrack, 23);
    if (drop_rate > 0.0) {
      config.fault_plan = faults::FaultPlan::uniform_drop(drop_rate);
    }
    dsm::Cluster cluster(config);
    cluster.execute(schedule_for(23));
    auto registry = std::make_unique<obs::MetricsRegistry>();
    cluster.export_metrics(*registry);
    return registry;
  };
  const auto clean = metrics_for(0.0);
  const auto faulty = metrics_for(0.3);

  for (const MessageKind kind : kAllMessageKinds) {
    const std::string name = std::string("msg.") + to_string(kind) + ".count";
    EXPECT_EQ(clean->counter(name).value(), faulty->counter(name).value()) << name;
  }
  EXPECT_GT(faulty->counter("faults.drop.count").value(), 0u);
  EXPECT_GT(faulty->counter("net.reliable.retransmit.count").value(), 0u);
  EXPECT_GT(faulty->counter("net.reliable.data.count").value(), 0u);

  // The fault-free export must not mention the fault stack at all. (The
  // counter() lookups above created entries in `clean`, so serialize a
  // fresh export to check.)
  std::ostringstream json;
  metrics_for(0.0)->write_json(json);
  EXPECT_EQ(json.str().find("faults."), std::string::npos);
  EXPECT_EQ(json.str().find("net.reliable."), std::string::npos);
}

/// The analysis report routes drop/retransmit events into its "faults"
/// section — and the section's totals reconcile exactly with the stack's
/// own counters, while protocol send accounting matches the fault-free
/// message counts.
TEST(FaultEquivalence, ReportFaultSectionReconcilesWithStackCounters) {
  const auto report_for = [](double drop_rate) {
    dsm::ClusterConfig config = base_config(causal::ProtocolKind::kOptTrack, 31);
    if (drop_rate > 0.0) {
      config.fault_plan = faults::FaultPlan::uniform_drop(drop_rate);
    }
    obs::RingBufferSink sink;
    config.trace_sink = &sink;
    dsm::Cluster cluster(config);
    cluster.execute(schedule_for(31));
    const auto report = obs::analysis::analyze(sink.events());
    if (drop_rate > 0.0) {
      // The report's fault section reconciles exactly with the stack's
      // own counters.
      EXPECT_NE(cluster.injector(), nullptr);
      EXPECT_NE(cluster.reliable(), nullptr);
      EXPECT_EQ(report.faults_total.drops, cluster.injector()->drops());
      EXPECT_EQ(report.faults_total.retransmits, cluster.reliable()->retransmits());
      EXPECT_GT(report.faults_total.drops, 0u);
      EXPECT_GT(report.faults_total.dropped_bytes, 0u);
    }
    return report;
  };
  const auto clean = report_for(0.0);
  const auto faulty = report_for(0.3);

  // Reliability frames never leak into the protocol send attribution:
  // despite drops and retransmissions on the wire, the faulty run records
  // exactly the per-kind send events of the fault-free run (kSend is
  // emitted by the sites, above the fault stack — including warm-up ops,
  // so this is the full trace-level count, not the trimmed stats).
  for (const MessageKind kind : kAllMessageKinds) {
    EXPECT_EQ(faulty.send_kind[static_cast<std::size_t>(kind)].count,
              clean.send_kind[static_cast<std::size_t>(kind)].count)
        << to_string(kind);
  }
}

/// Scripted pause windows behave as a transient partition: messages sent
/// into the window are dropped and retransmitted after it closes; the run
/// still converges causally consistent with unchanged counts.
TEST(FaultConformance, PauseWindowIsSurvivable) {
  const Outcome baseline = run_once(causal::ProtocolKind::kOptTrack, 0.0, 41);
  dsm::ClusterConfig config = base_config(causal::ProtocolKind::kOptTrack, 41);
  config.fault_plan.pauses.push_back(
      faults::PauseWindow{1, 100 * kMillisecond, 2 * kSecond});
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(41));
  EXPECT_TRUE(cluster.check().ok());
  ASSERT_NE(cluster.injector(), nullptr);
  EXPECT_GT(cluster.injector()->drops(), 0u);
  const stats::MessageStats stats = cluster.aggregate_message_stats();
  for (const MessageKind kind : kAllMessageKinds) {
    EXPECT_EQ(stats.of(kind).count,
              baseline.counts[static_cast<std::size_t>(kind)])
        << to_string(kind);
  }
}

}  // namespace
}  // namespace causim
