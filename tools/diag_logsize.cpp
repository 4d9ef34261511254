// Diagnostic: Opt-Track log behaviour under different write rates, derived
// from the structured trace through the live sampler's time_sample events
// and the analysis engine (the same path as `--report-out` / causim-trace)
// instead of poking at the protocol's log directly.
#include <cstdio>

#include "bench_support/experiment.hpp"
#include "dsm/cluster.hpp"
#include "obs/analysis/analysis.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "workload/schedule.hpp"

using namespace causim;

int main() {
  for (const double wrate : {0.2, 0.5, 0.8}) {
    obs::RingBufferSink sink(1 << 20);

    dsm::ClusterConfig config;
    config.sites = 40;
    config.variables = 100;
    config.replication = bench_support::partial_replication_factor(40);
    config.protocol = causal::ProtocolKind::kOptTrack;
    config.seed = 1;
    config.record_history = false;
    config.trace_sink = &sink;
    obs::live::LiveConfig live_config;
    live_config.sites = config.sites;
    live_config.variables = config.variables;
    live_config.sample_interval = 500 * kMillisecond;
    obs::live::LiveTelemetry live(live_config);
    config.live = &live;

    workload::WorkloadParams wl;
    wl.variables = 100;
    wl.write_rate = wrate;
    wl.ops_per_site = 300;
    wl.seed = 1;

    dsm::Cluster cluster(config);
    cluster.execute(workload::generate_schedule(40, wl));

    obs::analysis::AnalysisOptions opts;
    opts.dropped = sink.dropped();
    const obs::analysis::AnalysisReport report =
        obs::analysis::analyze(sink.events(), opts);

    // Log occupancy folded over all sites' sample series.
    stats::Summary entries, bytes;
    for (const auto& [site, occ] : report.occupancy) {
      entries += occ.entries;
      bytes += occ.bytes;
    }
    const auto& sm = report.send_kind[static_cast<std::size_t>(MessageKind::kSM)];
    const auto& rm = report.send_kind[static_cast<std::size_t>(MessageKind::kRM)];
    std::printf("wrate %.1f: log entries mean %.1f max %.0f | meta bytes mean %.0f | "
                "avg SM %.0f avg RM %.0f\n",
                wrate, entries.mean(), entries.max(), bytes.mean(), sm.avg(), rm.avg());
    std::printf("  churn: %llu merges (+%llu entries), %llu prunes (-%llu entries) | "
                "activation: %llu applies, %llu buffered, mean wait %.0f us | "
                "%llu samples, dropped %llu\n",
                static_cast<unsigned long long>(report.log_total.merges),
                static_cast<unsigned long long>(report.log_total.merged_entries),
                static_cast<unsigned long long>(report.log_total.prunes),
                static_cast<unsigned long long>(report.log_total.pruned_entries),
                static_cast<unsigned long long>(report.activation_total.applies),
                static_cast<unsigned long long>(report.activation_total.buffered),
                report.activation_total.latency_us.mean(),
                static_cast<unsigned long long>(entries.count()),
                static_cast<unsigned long long>(report.dropped));
  }
  return 0;
}
