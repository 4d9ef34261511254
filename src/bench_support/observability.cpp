#include "bench_support/observability.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/analysis/analysis.hpp"
#include "obs/analysis/json.hpp"
#include "obs/perfetto_export.hpp"

namespace causim::bench_support {

namespace {

using obs::analysis::json_number;

void write_kind(std::ostream& out, const char* name, const stats::SizeBreakdown& k) {
  out << "\"" << name << "\":{\"count\":" << k.count
      << ",\"overhead_bytes\":" << k.overhead_bytes()
      << ",\"meta_bytes\":" << k.meta_bytes
      << ",\"payload_bytes\":" << k.payload_bytes << "}";
}

}  // namespace

Observability::Observability(const BenchOptions& options, std::string bench_name)
    : bench_name_(std::move(bench_name)),
      quick_(options.quick),
      trace_out_(options.trace_out),
      metrics_out_(options.metrics_out),
      report_out_(options.report_out),
      json_out_(options.json_out),
      timeseries_out_(options.timeseries_out),
      critpath_(options.critpath) {
  if (!trace_out_.empty() || !report_out_.empty()) {
    sink_ = std::make_unique<obs::RingBufferSink>();
  }
  // Fail fast on unwritable outputs: a grid can run for minutes, and
  // discovering the typoed directory only at finish() throws that work
  // away (the old behaviour for --trace-out).
  ok_ &= probe_writable(trace_out_, "--trace-out");
  ok_ &= probe_writable(metrics_out_, "--metrics-out");
  ok_ &= probe_writable(report_out_, "--report-out");
  ok_ &= probe_writable(json_out_, "--json-out");
  ok_ &= probe_writable(timeseries_out_, "--timeseries-out");
}

bool Observability::probe_writable(const std::string& path, const char* flag) {
  if (path.empty()) return true;
  // Append mode: creates the file when the directory exists, never
  // truncates anything a concurrent reader may hold open.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    std::cerr << "error: cannot write " << flag << " '" << path
              << "': " << std::strerror(errno)
              << " (does the output directory exist?)\n";
    return false;
  }
  std::fclose(f);
  return true;
}

obs::MetricsRegistry* Observability::metrics() {
  return metrics_out_.empty() ? nullptr : &registry_;
}

obs::TraceSink* Observability::claim_trace_sink() {
  if (sink_ == nullptr || claimed_) return nullptr;
  claimed_ = true;
  return sink_.get();
}

std::unique_ptr<obs::live::LiveTelemetry> Observability::cell_telemetry(
    SiteId sites, VarId variables, const obs::TraceSink* trace_sink,
    bool want_timeseries) const {
  // The visibility tracker runs for every cell when results are wanted
  // (--json-out). The 100 ms sampler runs for the first cell's
  // --timeseries-out stream and for the cell holding this object's own
  // sink, whose time_sample events become the report's log occupancy.
  // Matching any sink would also sample cells whose sink is private to
  // the bench (ext_geo's visibility splitter).
  const bool sampled =
      want_timeseries || (trace_sink != nullptr && trace_sink == sink_.get());
  if (json_out_.empty() && !sampled) return nullptr;
  obs::live::LiveConfig lc;
  lc.sites = sites;
  lc.variables = variables;
  lc.critpath = critpath_;
  if (sampled) lc.sample_interval = 100 * kMillisecond;
  return std::make_unique<obs::live::LiveTelemetry>(lc);
}

ExperimentResult Observability::run_cell(const std::string& label,
                                         ExperimentParams params) {
  // A caller-supplied sink wins (ext_geo's LAN/WAN visibility splitter);
  // otherwise the first cell claims the shared --trace-out sink.
  if (params.trace_sink == nullptr) params.trace_sink = claim_trace_sink();
  params.metrics = metrics();
  const bool want_timeseries = !timeseries_out_.empty() && timeseries_live_ == nullptr;
  std::unique_ptr<obs::live::LiveTelemetry> cell_live = cell_telemetry(
      params.sites, params.variables, params.trace_sink, want_timeseries);
  params.live = cell_live.get();

  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentResult result = run_experiment(params);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!json_out_.empty()) {
    append_cell(label, params, result, wall_s, cell_live.get());
  }
  if (cell_live != nullptr && params.metrics != nullptr) {
    cell_live->export_metrics(registry_);
  }
  if (want_timeseries) timeseries_live_ = std::move(cell_live);
  return result;
}

void Observability::append_cell(const std::string& label,
                                const ExperimentParams& params,
                                const ExperimentResult& result, double wall_s,
                                const obs::live::LiveTelemetry* live,
                                const std::string& extra) {
  std::ostringstream out;
  out << "{\"label\":\"" << obs::analysis::json_escape(label) << "\"";
  out << ",\"protocol\":\"" << to_string(params.protocol) << "\"";
  out << ",\"sites\":" << params.sites;
  out << ",\"replication\":" << params.replication;
  out << ",\"variables\":" << params.variables;
  out << ",\"ops_per_site\":" << params.ops_per_site;
  out << ",\"write_rate\":" << json_number(params.write_rate);
  out << ",\"zipf_s\":" << json_number(params.zipf_s);
  out << ",\"payload_hi\":" << params.payload_hi;
  out << ",\"seeds\":" << params.seeds.size();
  out << ",\"causal_fetch\":" << (params.causal_fetch ? "true" : "false");
  out << ",\"reliable\":"
      << (params.reliable_channel || params.fault_plan.any() ? "true" : "false");
  // Executor/coalescing block only for non-default lanes, so every
  // pre-existing bench.v1 artifact stays byte-identical.
  if (params.executor == engine::ExecutorKind::kPooled || params.batch.enabled) {
    out << ",\"executor\":\"" << to_string(params.executor) << "\"";
    if (params.executor == engine::ExecutorKind::kPooled) {
      out << ",\"workers\":" << params.workers;  // 0 = hardware concurrency
    }
    out << ",\"wire_frames\":" << result.wire_frames;
    if (params.batch.enabled) {
      out << ",\"batch\":{\"max_messages\":" << params.batch.max_messages
          << ",\"frames\":" << result.batch_frames
          << ",\"messages\":" << result.batch_messages << "}";
    }
  }
  // Topology block only for geo lanes, same byte-identical rule: flat
  // benches emit exactly the pre-topology document.
  if (params.topology.enabled()) {
    out << ",\"topology\":{\"cells\":" << params.topology.cell_count()
        << ",\"gateway\":\"" << (params.gateway.enabled ? "on" : "off") << "\""
        << ",\"lan_messages\":" << result.lan_messages
        << ",\"wan_messages\":" << result.wan_messages
        << ",\"lan_bytes\":" << result.lan_bytes
        << ",\"wan_bytes\":" << result.wan_bytes
        << ",\"wan_frames\":" << result.wan_frames
        << ",\"gateway_frames\":" << result.gateway_frames
        << ",\"gateway_frame_messages\":" << result.gateway_frame_messages
        << ",\"gateway_enroute\":" << result.gateway_enroute << "}";
  }
  out << ",\"runs\":" << result.runs;
  out << ",\"recorded_writes\":" << result.recorded_writes;
  out << ",\"recorded_reads\":" << result.recorded_reads;
  out << ",\"wall_s\":" << json_number(wall_s);
  out << ",\"messages\":{";
  write_kind(out, "SM", result.stats.of(MessageKind::kSM));
  out << ",";
  write_kind(out, "FM", result.stats.of(MessageKind::kFM));
  out << ",";
  write_kind(out, "RM", result.stats.of(MessageKind::kRM));
  out << ",";
  write_kind(out, "total", result.stats.total());
  out << "}";
  out << ",\"mean_message_count\":" << json_number(result.mean_message_count());
  out << ",\"mean_total_meta_bytes\":" << json_number(result.mean_total_meta_bytes());
  out << ",\"mean_total_overhead_bytes\":"
      << json_number(result.mean_total_overhead_bytes());
  out << ",\"log_entries\":{\"count\":" << result.log_entries.count()
      << ",\"mean\":" << json_number(result.log_entries.mean())
      << ",\"max\":" << json_number(result.log_entries.max()) << "}";
  out << ",\"apply_delay_us\":{\"count\":" << result.apply_delay_us.count()
      << ",\"mean\":" << json_number(result.apply_delay_us.mean())
      << ",\"max\":" << json_number(result.apply_delay_us.max()) << "}";
  out << ",\"fetch_latency_us\":{\"count\":" << result.fetch_latency_us.count()
      << ",\"mean\":" << json_number(result.fetch_latency_us.mean())
      << ",\"max\":" << json_number(result.fetch_latency_us.max()) << "}";
  out << ",\"faults\":{\"drops\":" << result.drops
      << ",\"retransmits\":" << result.retransmits
      << ",\"dup_suppressed\":" << result.dup_suppressed
      << ",\"reliable_frames\":" << result.reliable_frames
      << ",\"reliable_packets\":" << result.reliable_packets
      << ",\"rtt_samples\":" << result.rtt_samples << "}";
  if (live != nullptr) {
    const obs::live::VisibilitySummary v = live->visibility_summary();
    out << ",\"visibility_us\":{\"count\":" << v.count
        << ",\"unmatched\":" << v.unmatched << ",\"mean\":" << json_number(v.mean_us)
        << ",\"max\":" << json_number(v.max_us) << ",\"p50\":" << json_number(v.p50_us)
        << ",\"p90\":" << json_number(v.p90_us) << ",\"p99\":" << json_number(v.p99_us)
        << ",\"p999\":" << json_number(v.p999_us) << "}";
    const obs::live::CritpathSummary cp = live->critpath_summary();
    if (cp.enabled) {
      const auto seg = [&](const char* name, const obs::live::CritpathSegment& s) {
        out << ",\"" << name << "\":{\"count\":" << s.count
            << ",\"total\":" << json_number(s.total_us)
            << ",\"mean\":" << json_number(s.mean_us)
            << ",\"p50\":" << json_number(s.p50_us)
            << ",\"p90\":" << json_number(s.p90_us)
            << ",\"p99\":" << json_number(s.p99_us)
            << ",\"max\":" << json_number(s.max_us) << "}";
      };
      out << ",\"critpath\":{\"ops\":" << cp.ops
          << ",\"dep_segments\":" << cp.dep_segments
          << ",\"dropped_first_tx\":" << cp.dropped_first_tx;
      seg("wire_us", cp.wire);
      seg("arq_us", cp.arq);
      seg("dep_wait_us", cp.dep_wait);
      out << ",\"blocked_on_writer_us\":[";
      for (std::size_t i = 0; i < cp.blocked_on_writer_us.size(); ++i) {
        out << (i == 0 ? "" : ",") << json_number(cp.blocked_on_writer_us[i]);
      }
      out << "],\"top_blockers\":[";
      for (std::size_t i = 0; i < cp.top_blockers.size(); ++i) {
        const obs::live::BlockedOnEntry& b = cp.top_blockers[i];
        out << (i == 0 ? "" : ",") << "{\"writer\":" << b.writer
            << ",\"value\":" << b.value
            << ",\"ordinal\":" << (b.ordinal ? "true" : "false")
            << ",\"segments\":" << b.segments << ",\"wait_us\":" << json_number(b.wait_us)
            << ",\"error_us\":" << json_number(b.error_us) << "}";
      }
      out << "]}";
    }
  }
  // Caller-supplied trailing block (the KV service block); empty for
  // every classic cell, so pre-existing artifacts stay byte-identical.
  if (!extra.empty()) out << "," << extra;
  out << "}";
  cells_.push_back(out.str());
}

kv::ServiceResult Observability::run_service_cell(const std::string& label,
                                                  kv::ServiceParams params) {
  // Same instrument wiring as run_cell: the first cell claims the shared
  // trace sink, and cell_telemetry decides the tracker and its sampler.
  if (params.engine.trace_sink == nullptr) {
    params.engine.trace_sink = claim_trace_sink();
  }
  params.metrics = metrics();
  const bool want_timeseries = !timeseries_out_.empty() && timeseries_live_ == nullptr;
  std::unique_ptr<obs::live::LiveTelemetry> cell_live =
      cell_telemetry(params.engine.sites, params.engine.variables,
                     params.engine.trace_sink, want_timeseries);
  params.engine.live = cell_live.get();

  const auto t0 = std::chrono::steady_clock::now();
  const kv::ServiceResult result = kv::run_service(params);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!json_out_.empty()) {
    // The standard cell view of the run, so the common counter blocks
    // (messages, log_entries, faults, topology, …) serialize and gate
    // exactly like a closed-schedule cell.
    ExperimentParams view;
    view.protocol = params.engine.protocol;
    view.sites = params.engine.sites;
    view.replication = params.engine.replication;
    view.variables = params.engine.variables;
    view.ops_per_site = params.workload.ops_per_site;
    view.write_rate = params.workload.write_rate;
    view.zipf_s = params.workload.zipf_s;
    view.payload_lo = params.workload.payload_lo;
    view.payload_hi = params.workload.payload_hi;
    view.seeds = {params.workload.seed};
    view.causal_fetch = params.engine.causal_fetch;
    view.fault_plan = params.engine.fault_plan;
    view.reliable_channel = params.engine.reliable_channel;
    view.executor = params.substrate == kv::Substrate::kPooled
                        ? engine::ExecutorKind::kPooled
                        : engine::ExecutorKind::kPerSite;
    view.workers = params.workers;
    view.batch = params.engine.batch;
    view.topology = params.engine.topology;
    view.gateway = params.engine.gateway;

    ExperimentResult res;
    res.stats = result.stats;
    res.runs = 1;
    res.recorded_writes = result.recorded_writes;
    res.recorded_reads = result.recorded_reads;
    res.log_entries = result.log_entries;
    res.fetch_latency_us = result.fetch_latency_us;
    res.apply_delay_us = result.apply_delay_us;
    res.check_ok = result.check_ok;
    res.drops = result.drops;
    res.retransmits = result.retransmits;
    res.dup_suppressed = result.dup_suppressed;
    res.reliable_frames = result.reliable_frames;
    res.reliable_packets = result.reliable_packets;
    res.rtt_samples = result.rtt_samples;
    res.wire_frames = result.wire_frames;
    res.batch_frames = result.batch_frames;
    res.batch_messages = result.batch_messages;
    res.lan_messages = result.lan_messages;
    res.wan_messages = result.wan_messages;
    res.lan_bytes = result.lan_bytes;
    res.wan_bytes = result.wan_bytes;
    res.wan_frames = result.wan_frames;
    res.gateway_frames = result.gateway_frames;
    res.gateway_frame_messages = result.gateway_frame_messages;
    res.gateway_enroute = result.gateway_enroute;

    append_cell(label, view, res, wall_s, cell_live.get(),
                "\"service\":" + kv::service_block_json(params, result));
  }
  if (cell_live != nullptr && metrics() != nullptr) {
    cell_live->export_metrics(registry_);
  }
  if (want_timeseries) timeseries_live_ = std::move(cell_live);
  return result;
}

bool Observability::finish() {
  bool ok = ok_;
  if (sink_ != nullptr && metrics() != nullptr) {
    // Surface trace health next to the run's metrics so a truncated trace
    // is visible without opening the trace file itself.
    registry_.counter("trace.recorded_events").add(sink_->size());
    registry_.counter("trace.dropped_events").add(sink_->dropped());
  }
  if (sink_ != nullptr && !trace_out_.empty()) {
    std::ofstream out(trace_out_);
    if (!out) {
      std::cerr << "error: cannot write trace to " << trace_out_ << "\n";
      ok = false;
    } else {
      obs::write_chrome_trace(out, sink_->events(), sink_->dropped());
      if (sink_->dropped() > 0) {
        std::cerr << "warning: trace ring buffer full, dropped " << sink_->dropped()
                  << " events (kept the first " << sink_->capacity() << ")\n";
      }
      std::cerr << "trace: " << sink_->size() << " events -> " << trace_out_ << "\n";
    }
  }
  if (sink_ != nullptr && !report_out_.empty()) {
    std::ofstream out(report_out_);
    if (!out) {
      std::cerr << "error: cannot write report to " << report_out_ << "\n";
      ok = false;
    } else {
      obs::analysis::AnalysisOptions opts;
      opts.dropped = sink_->dropped();
      const obs::analysis::AnalysisReport report =
          obs::analysis::analyze(sink_->events(), opts);
      report.write_json(out);
      std::cerr << "report: " << report.events << " events -> " << report_out_
                << "\n";
    }
  }
  if (!metrics_out_.empty()) {
    std::ofstream out(metrics_out_);
    if (!out) {
      std::cerr << "error: cannot write metrics to " << metrics_out_ << "\n";
      ok = false;
    } else {
      const bool csv = metrics_out_.size() >= 4 &&
                       metrics_out_.compare(metrics_out_.size() - 4, 4, ".csv") == 0;
      if (csv) {
        registry_.write_csv(out);
      } else {
        registry_.write_json(out);
      }
      std::cerr << "metrics -> " << metrics_out_ << "\n";
    }
  }
  if (!json_out_.empty()) {
    std::ofstream out(json_out_);
    if (!out) {
      std::cerr << "error: cannot write results to " << json_out_ << "\n";
      ok = false;
    } else {
      out << "{\"schema\":\"causim.bench.v1\",\"bench\":\""
          << obs::analysis::json_escape(bench_name_) << "\",\"quick\":"
          << (quick_ ? "true" : "false") << ",\"cells\":[";
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        out << (i == 0 ? "" : ",") << "\n" << cells_[i];
      }
      out << "\n]}\n";
      std::cerr << "results: " << cells_.size() << " cells -> " << json_out_ << "\n";
    }
  }
  if (!timeseries_out_.empty()) {
    if (timeseries_live_ == nullptr) {
      std::cerr << "error: --timeseries-out set but no cell ran through "
                   "run_cell (nothing sampled)\n";
      ok = false;
    } else {
      std::ofstream out(timeseries_out_);
      if (!out) {
        std::cerr << "error: cannot write timeseries to " << timeseries_out_ << "\n";
        ok = false;
      } else {
        timeseries_live_->write_timeseries_json(out);
        std::cerr << "timeseries: " << timeseries_live_->samples().size()
                  << " samples -> " << timeseries_out_ << "\n";
      }
    }
  }
  return ok;
}

}  // namespace causim::bench_support
