// Offline causal trace analysis — the engine behind `causim-trace` and
// `--report-out`.
//
// Consumes the structured trace of one run (an in-memory
// std::vector<TraceEvent> or a Chrome trace JSON re-read through
// trace_reader) and derives the observability the paper's end-of-run
// aggregates hide:
//
//   * activation latency — the span each buffered SM spent between
//     delivery and activation, i.e. the remote-update visibility delay
//     caused by (possibly false) causal dependencies, per site and
//     overall (Summary + quantiles);
//   * meta-data attribution — where each protocol's bytes go, folded from
//     `send` events per message kind and per site, plus log churn
//     (merge/prune counts and entry deltas) from the ProtocolObserver
//     events;
//   * causal log occupancy — the per-site time series of log entry counts
//     and meta-data bytes carried by the live sampler's `time_sample`
//     events (obs::live, LiveConfig::sample_interval), downsampled to a
//     bounded number of points.
//
// Reports serialize to deterministic JSON (schema causim.analysis.v1):
// under the DES, two runs with the same (schedule, seed) produce
// byte-identical report files, so `diff`/`causim-trace diff` pinpoint
// exactly where two executions diverge. write_json_diff turns two parsed
// reports into a structural A/B comparison (numbers that differ become
// {a, b, delta} objects).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/message_kind.hpp"
#include "obs/analysis/json.hpp"
#include "obs/trace_event.hpp"
#include "stats/histogram.hpp"

namespace causim::obs::analysis {

struct AnalysisOptions {
  /// Free-form run label embedded in the report ("" by default so the
  /// bench-side and CLI-side reports of the same trace stay identical).
  std::string label;
  /// Ring-buffer drops to record (the analyzer cannot see dropped events;
  /// callers know — Observability from the sink, the CLI from the trace
  /// metadata).
  std::uint64_t dropped = 0;
  /// Per-site cap on log-occupancy series points; denser sample streams
  /// are averaged into this many time buckets.
  std::size_t max_series_points = 128;
};

/// Per-message-kind byte attribution folded from `send` events.
struct KindBreakdown {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;  // header + meta, as recorded in send.b

  double avg() const {
    return count == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(count);
  }
};

/// Remote-update activation behaviour of one site (or the whole run).
struct ActivationStats {
  std::uint64_t applies = 0;   // every activated event
  std::uint64_t buffered = 0;  // ...that had waited in the pending queue
  stats::Summary latency_us;   // buffered spans only (deliver -> activated)
};

/// Log churn reported by the ProtocolObserver events.
struct LogActivity {
  std::uint64_t merges = 0;
  std::uint64_t prunes = 0;
  std::uint64_t merged_entries = 0;  // sum of max(after - before, 0) over merges
  std::uint64_t pruned_entries = 0;  // sum of max(before - after, 0) over prunes
};

/// What the fault stack did to the wire, folded from kDrop / kRetransmit
/// events. Zero everywhere on a fault-free run — and kept in its own
/// section so protocol metrics (activation, metadata_attribution) never
/// absorb reliability-layer traffic.
struct FaultActivity {
  std::uint64_t drops = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retransmitted_bytes = 0;
};

struct OccupancyPoint {
  SimTime ts = 0;      // sample (or bucket-edge) time
  double entries = 0;  // log entry count (bucket mean when downsampled)
  double bytes = 0;    // serialized meta-data bytes
};

struct SiteOccupancy {
  std::uint64_t samples = 0;  // raw time_sample events before downsampling
  stats::Summary entries;
  stats::Summary bytes;
  std::vector<OccupancyPoint> series;
};

struct AnalysisReport {
  std::string label;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  SiteId sites = 0;        // 1 + highest site id seen
  SimTime t_begin = 0;     // earliest event timestamp
  SimTime t_end = 0;       // latest event end (ts + dur)

  ActivationStats activation_total;
  stats::Histogram activation_hist{0.0, 1e6, 200};  // µs, 5 ms buckets
  std::map<SiteId, ActivationStats> activation_site;

  std::array<KindBreakdown, kAllMessageKinds.size()> send_kind{};
  std::map<SiteId, std::array<KindBreakdown, kAllMessageKinds.size()>> send_site;

  LogActivity log_total;
  std::map<SiteId, LogActivity> log_site;

  FaultActivity faults_total;
  std::map<SiteId, FaultActivity> faults_site;  // keyed by the sending site

  std::map<SiteId, SiteOccupancy> occupancy;

  /// Deterministic report JSON (schema causim.analysis.v1).
  void write_json(std::ostream& out) const;
  std::string json() const;
};

AnalysisReport analyze(const std::vector<TraceEvent>& events,
                       const AnalysisOptions& options = {});

/// Structural diff of two parsed JSON documents (typically two analysis
/// reports of the same schedule under different protocols): equal values
/// pass through, differing numbers become {"a": x, "b": y, "delta": y-x},
/// differing non-numbers become {"a": ..., "b": ...}, arrays of different
/// length collapse to their lengths. Deterministic (key-sorted).
void write_json_diff(std::ostream& out, const Json& a, const Json& b);

}  // namespace causim::obs::analysis
