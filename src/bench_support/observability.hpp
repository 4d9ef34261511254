// Observability — the bench-side owner of `--trace-out` / `--metrics-out`
// / `--report-out` / `--json-out` / `--timeseries-out`.
//
// Benches construct one of these from their parsed BenchOptions and run
// every grid cell through run_cell(), which wires the cell-level
// instruments (trace sink for the first cell, the metrics registry, and —
// when machine-readable output was requested — an obs::live telemetry
// subscriber per cell) and collects a causim.bench.v1 record per cell.
// finish() after the last cell writes the files: a Chrome/Perfetto
// trace-event JSON for the traced run, a metrics JSON (or CSV, chosen by
// file extension) for the whole grid, an analysis report (obs::analysis,
// schema causim.analysis.v1) derived from the traced cell's events, the
// bench.v1 results document (tools/check_bench.py gates CI on it), and
// the first cell's causim.timeseries.v1 stream. Everything stays
// null/empty when the flags are absent, so an uninstrumented invocation
// costs nothing.
//
// Every output path is probed for writability at construction: a typoed
// or missing directory fails fast with the OS error instead of silently
// running the whole grid and writing nothing. Check ok() before running.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "kv/service.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"

namespace causim::bench_support {

class Observability {
 public:
  /// `bench_name` labels the bench.v1 document (conventionally the binary
  /// name, e.g. "fig2_4_partial_avg").
  explicit Observability(const BenchOptions& options,
                         std::string bench_name = "bench");

  /// False when one of the requested output paths is not writable (the
  /// reason was already printed to stderr). Benches should exit non-zero
  /// immediately rather than compute a grid nobody will see.
  bool ok() const { return ok_; }

  /// The grid-wide metrics registry, or nullptr when --metrics-out is
  /// absent. Pass straight to ExperimentParams::metrics.
  obs::MetricsRegistry* metrics();

  /// Returns the trace sink on the first call and nullptr afterwards:
  /// benches trace one representative cell, not the whole grid (a 30-cell
  /// sweep would overflow any reasonably sized ring buffer, and the first
  /// cell is as diffable as any). A sink exists when either --trace-out or
  /// --report-out was given — a report needs the events even if the raw
  /// trace is not kept.
  obs::TraceSink* claim_trace_sink();

  /// Runs one grid cell: attaches the first-cell trace sink, the metrics
  /// registry, and a live telemetry subscriber — the visibility tracker
  /// for every cell with --json-out, plus the 100 ms time-series sampler
  /// for the first cell with --timeseries-out and for the cell that holds
  /// this object's own trace sink (its time_sample events are the
  /// report's log-occupancy series). Times the run and appends the cell's
  /// bench.v1 record under `label`. Returns run_experiment's result
  /// unchanged, so table-building code keeps working as before. A trace
  /// sink already set in `params` is kept: a bench that claimed the shared
  /// sink itself still gets the sampler for that cell, while a cell with
  /// a sink of its own (ext_geo's per-cell visibility splitter) does not
  /// claim the shared sink and stays unsampled.
  ExperimentResult run_cell(const std::string& label, ExperimentParams params);

  /// Runs one open-loop KV service cell (kv::run_service) with the same
  /// instrument wiring as run_cell — first-cell trace sink, metrics
  /// registry, per-cell live telemetry — and appends a bench.v1 cell that
  /// carries the standard counter blocks plus a `service` block
  /// (sustained ops/sec, client-latency quantiles, session counters; see
  /// docs/OBSERVABILITY.md).
  kv::ServiceResult run_service_cell(const std::string& label,
                                     kv::ServiceParams params);

  /// Writes the requested files; returns false (after printing the reason
  /// to stderr) when one of them could not be written or ok() was already
  /// false.
  bool finish();

 private:
  bool probe_writable(const std::string& path, const char* flag);
  /// The cell's live tracker, or null when the cell needs none (see
  /// run_cell for which cells get one and which of those sample).
  std::unique_ptr<obs::live::LiveTelemetry> cell_telemetry(
      SiteId sites, VarId variables, const obs::TraceSink* trace_sink,
      bool want_timeseries) const;
  void append_cell(const std::string& label, const ExperimentParams& params,
                   const ExperimentResult& result, double wall_s,
                   const obs::live::LiveTelemetry* live,
                   const std::string& extra = std::string());

  std::string bench_name_;
  bool quick_ = false;
  std::string trace_out_;
  std::string metrics_out_;
  std::string report_out_;
  std::string json_out_;
  std::string timeseries_out_;
  bool critpath_ = false;  // --critpath: per-cell critical-path block
  std::unique_ptr<obs::RingBufferSink> sink_;
  bool claimed_ = false;
  obs::MetricsRegistry registry_;
  bool ok_ = true;
  std::vector<std::string> cells_;  // pre-serialized bench.v1 cell objects
  /// The first cell's telemetry, kept alive so finish() can serialize its
  /// time-series stream.
  std::unique_ptr<obs::live::LiveTelemetry> timeseries_live_;
};

}  // namespace causim::bench_support
