// causim-trace — offline analysis CLI over recorded Chrome/Perfetto traces
// and analysis reports (see src/obs/analysis and docs/OBSERVABILITY.md).
//
//   causim-trace analyze trace.json [--out report.json] [--label NAME]
//                                   [--max-points N] [--allow-dropped]
//   causim-trace diff a.json b.json [--out diff.json]
//   causim-trace timeseries ts.json [--out summary.json]
//   causim-trace timeseries a.json b.json [--out diff.json]
//   causim-trace explain trace.json [--op W:C[:DEST] | --worst]
//                                   [--depth N] [--allow-dropped] [--out FILE]
//   causim-trace critpath trace.json [b.json] [--out FILE] [--label NAME]
//                                    [--top K] [--cells C0,C1,...]
//                                    [--allow-dropped]
//
// `analyze` re-reads a `--trace-out` file and emits the same
// causim.analysis.v1 report that `--report-out` produces in-process (with
// the default label the two are byte-identical). `diff` takes two report
// files and emits a structural A/B comparison (causim.analysis.diff.v1).
// `timeseries` summarizes a `--timeseries-out` stream
// (causim.timeseries.v1) into per-metric aggregates
// (causim.timeseries.summary.v1); with two files it diffs the two
// summaries structurally (causim.timeseries.diff.v1). `explain` prints one
// operation's causal dependency DAG with its visibility latency decomposed
// into critical-path segments; `critpath` aggregates that decomposition
// over the whole trace (causim.provenance.v1), or diffs two traces
// (causim.provenance.diff.v1).
//
// Exit codes: 0 success, 1 invalid/refused input (malformed JSON, wrong
// schema, truncated trace without --allow-dropped, unknown op), 2 bad
// command line, 3 unreadable input file.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis/analysis.hpp"
#include "obs/analysis/provenance.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "stats/histogram.hpp"

#ifndef CAUSIM_VERSION
#define CAUSIM_VERSION "dev"
#endif

namespace {

using namespace causim;

constexpr int kExitOk = 0;
constexpr int kExitInvalid = 1;    // validation / refused input
constexpr int kExitUsage = 2;      // bad arguments
constexpr int kExitUnreadable = 3; // input file cannot be read

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  causim-trace analyze <trace.json> [--out FILE] [--label NAME]"
         " [--max-points N] [--allow-dropped]\n"
         "  causim-trace diff <a.json> <b.json> [--out FILE]\n"
         "  causim-trace timeseries <ts.json> [--out FILE]\n"
         "  causim-trace timeseries <a.json> <b.json> [--out FILE]\n"
         "  causim-trace explain <trace.json> [--op WRITER:CLOCK[:DEST] |"
         " --worst] [--depth N] [--allow-dropped] [--out FILE]\n"
         "  causim-trace critpath <trace.json> [<b.json>] [--out FILE]"
         " [--label NAME] [--top K] [--cells C0,C1,...] [--allow-dropped]\n"
         "  causim-trace --version\n"
         "\n"
         "exit codes: 0 ok, 1 invalid or refused input, 2 bad arguments,"
         " 3 unreadable file\n";
  return code;
}

int version() {
  std::cout << "causim-trace " CAUSIM_VERSION "\n"
               "schemas: causim.analysis.v1 causim.analysis.diff.v1"
               " causim.timeseries.v1 causim.timeseries.summary.v1"
               " causim.timeseries.diff.v1 causim.provenance.v1"
               " causim.provenance.diff.v1 causim.bench.v1\n";
  return kExitOk;
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

/// Loads and parses one JSON file. Returns kExitOk, kExitUnreadable (file
/// missing/unreadable) or kExitInvalid (malformed JSON).
int load_json(const std::string& path, obs::analysis::Json* doc) {
  std::string text;
  if (!read_file(path, &text)) return kExitUnreadable;
  std::string error;
  *doc = obs::analysis::Json::parse(text, &error);
  if (!error.empty()) {
    std::cerr << "error: " << path << ": " << error << "\n";
    return kExitInvalid;
  }
  return kExitOk;
}

/// Loads a Chrome-trace file into events; refuses a truncated trace
/// (ring-buffer drops) unless `allow_dropped` — partial provenance DAGs
/// and latency aggregates silently lie about the missing window.
int load_trace(const std::string& path, bool allow_dropped,
               std::optional<obs::analysis::TraceDocument>* trace) {
  obs::analysis::Json doc;
  if (const int rc = load_json(path, &doc); rc != kExitOk) return rc;
  std::string error;
  *trace = obs::analysis::read_chrome_trace(doc, &error);
  if (!*trace) {
    std::cerr << "error: " << path << ": " << error << "\n";
    return kExitInvalid;
  }
  if ((*trace)->dropped > 0 && !allow_dropped) {
    std::cerr << "error: " << path << ": trace is truncated (" << (*trace)->dropped
              << " events dropped by the ring buffer); results would be"
                 " partial. Re-record with a larger buffer or pass"
                 " --allow-dropped to analyze it anyway.\n";
    return kExitInvalid;
  }
  return kExitOk;
}

/// Writes to `path`, or stdout when empty. Returns false on I/O failure.
bool with_output(const std::string& path,
                 const std::function<void(std::ostream&)>& write) {
  if (path.empty()) {
    write(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  write(out);
  return static_cast<bool>(out);
}

/// `--name=value` or `--name value`; advances `i` past a detached value.
const char* flag_value(char** argv, int argc, int& i, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return nullptr;
  if (argv[i][len] == '=') return argv[i] + len + 1;
  if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
  return nullptr;
}

int run_analyze(int argc, char** argv) {
  std::string trace_path;
  std::string out_path;
  bool allow_dropped = false;
  obs::analysis::AnalysisOptions options;
  for (int i = 2; i < argc; ++i) {
    if (const char* out = flag_value(argv, argc, i, "--out")) {
      out_path = out;
    } else if (const char* label = flag_value(argv, argc, i, "--label")) {
      options.label = label;
    } else if (const char* points = flag_value(argv, argc, i, "--max-points")) {
      options.max_series_points =
          static_cast<std::size_t>(std::strtoull(points, nullptr, 10));
    } else if (std::strcmp(argv[i], "--allow-dropped") == 0) {
      allow_dropped = true;
    } else if (argv[i][0] == '-') {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage(std::cerr, kExitUsage);
    } else if (trace_path.empty()) {
      trace_path = argv[i];
    } else {
      return usage(std::cerr, kExitUsage);
    }
  }
  if (trace_path.empty()) return usage(std::cerr, kExitUsage);

  std::optional<obs::analysis::TraceDocument> trace;
  if (const int rc = load_trace(trace_path, allow_dropped, &trace); rc != kExitOk) {
    return rc;
  }
  options.dropped = trace->dropped;
  const obs::analysis::AnalysisReport report =
      obs::analysis::analyze(trace->events, options);
  if (!with_output(out_path, [&](std::ostream& out) { report.write_json(out); })) {
    return kExitInvalid;
  }
  if (!out_path.empty()) {
    std::cerr << "report: " << report.events << " events -> " << out_path << "\n";
  }
  return kExitOk;
}

/// A report's display name in the diff header: its embedded label when
/// non-empty, else the file path.
std::string report_name(const obs::analysis::Json& doc, const std::string& path) {
  const std::string label = doc.at("label").str();
  return label.empty() ? path : label;
}

int run_diff(int argc, char** argv) {
  std::string paths[2];
  std::size_t n_paths = 0;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    if (const char* v = flag_value(argv, argc, i, "--out")) {
      out_path = v;
    } else if (argv[i][0] == '-') {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage(std::cerr, kExitUsage);
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      return usage(std::cerr, kExitUsage);
    }
  }
  if (n_paths != 2) return usage(std::cerr, kExitUsage);

  obs::analysis::Json a;
  obs::analysis::Json b;
  if (const int rc = load_json(paths[0], &a); rc != kExitOk) return rc;
  if (const int rc = load_json(paths[1], &b); rc != kExitOk) return rc;
  const bool ok = with_output(out_path, [&](std::ostream& out) {
    out << "{\"a\":\"" << obs::analysis::json_escape(report_name(a, paths[0]))
        << "\",\"b\":\"" << obs::analysis::json_escape(report_name(b, paths[1]))
        << "\",\"diff\":";
    obs::analysis::write_json_diff(out, a, b);
    out << ",\"schema\":\"causim.analysis.diff.v1\"}\n";
  });
  return ok ? kExitOk : kExitInvalid;
}

/// The per-sample metrics of a causim.timeseries.v1 stream, in output
/// order. `ts` is summarized separately (t_begin/t_end).
constexpr const char* kTimeseriesMetrics[] = {
    "ops",         "sends",       "applies",
    "wire_inflight", "buffered_sm", "log_entries",
    "log_bytes",   "reliable_frames", "retransmits"};

/// Summarizes one causim.timeseries.v1 document into
/// causim.timeseries.summary.v1: per-metric count/mean/min/max/last over
/// the sample stream, plus the stream's shape (samples, runs, interval,
/// time span). Returns false with an error on a wrong or missing schema.
bool summarize_timeseries(const obs::analysis::Json& doc, const std::string& path,
                          std::ostream& out) {
  if (doc.at("schema").str() != "causim.timeseries.v1") {
    std::cerr << "error: " << path << ": expected schema causim.timeseries.v1, got '"
              << doc.at("schema").str() << "'\n";
    return false;
  }
  const auto& samples = doc.at("samples").array();
  using obs::analysis::json_number;

  out << "{\"schema\":\"causim.timeseries.summary.v1\"";
  out << ",\"samples\":" << samples.size();
  out << ",\"runs\":" << doc.at("runs").size();
  out << ",\"interval_us\":" << json_number(doc.at("interval_us").number());
  out << ",\"sites\":" << json_number(doc.at("sites").number());
  out << ",\"truncated\":" << json_number(doc.at("truncated").number());
  if (!samples.empty()) {
    out << ",\"t_begin\":" << json_number(samples.front().at("ts").number());
    out << ",\"t_end\":" << json_number(samples.back().at("ts").number());
  }
  out << ",\"metrics\":{";
  bool first = true;
  for (const char* metric : kTimeseriesMetrics) {
    causim::stats::Summary summary;
    double last = 0.0;
    for (const auto& sample : samples) {
      const double v = sample.at(metric).number();
      summary.record(v);
      last = v;
    }
    out << (first ? "" : ",") << "\"" << metric << "\":{\"count\":" << summary.count()
        << ",\"mean\":" << json_number(summary.mean())
        << ",\"min\":" << json_number(summary.min())
        << ",\"max\":" << json_number(summary.max())
        << ",\"last\":" << json_number(last) << "}";
    first = false;
  }
  out << "}}\n";
  return true;
}

int run_timeseries(int argc, char** argv) {
  std::string paths[2];
  std::size_t n_paths = 0;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    if (const char* v = flag_value(argv, argc, i, "--out")) {
      out_path = v;
    } else if (argv[i][0] == '-') {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage(std::cerr, kExitUsage);
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      return usage(std::cerr, kExitUsage);
    }
  }
  if (n_paths == 0) return usage(std::cerr, kExitUsage);

  if (n_paths == 1) {
    obs::analysis::Json doc;
    if (const int rc = load_json(paths[0], &doc); rc != kExitOk) return rc;
    std::ostringstream buffer;
    if (!summarize_timeseries(doc, paths[0], buffer)) return kExitInvalid;
    return with_output(out_path,
                       [&](std::ostream& out) { out << buffer.str(); })
               ? kExitOk
               : kExitInvalid;
  }

  // Two files: summarize both, then diff the summaries structurally so the
  // output stays small however long the streams are.
  obs::analysis::Json summaries[2];
  for (std::size_t k = 0; k < 2; ++k) {
    obs::analysis::Json doc;
    if (const int rc = load_json(paths[k], &doc); rc != kExitOk) return rc;
    std::ostringstream buffer;
    if (!summarize_timeseries(doc, paths[k], buffer)) return kExitInvalid;
    std::string error;
    summaries[k] = obs::analysis::Json::parse(buffer.str(), &error);
    if (!error.empty()) {
      std::cerr << "error: internal summary of " << paths[k]
                << " is not valid JSON: " << error << "\n";
      return kExitInvalid;
    }
  }
  const bool ok = with_output(out_path, [&](std::ostream& out) {
    out << "{\"a\":\"" << obs::analysis::json_escape(paths[0]) << "\",\"b\":\""
        << obs::analysis::json_escape(paths[1]) << "\",\"diff\":";
    obs::analysis::write_json_diff(out, summaries[0], summaries[1]);
    out << ",\"schema\":\"causim.timeseries.diff.v1\"}\n";
  });
  return ok ? kExitOk : kExitInvalid;
}

/// Parses the `--cells` site->cell map: a comma-separated cell index per
/// site ("0,0,1,1" = sites 0-1 in cell 0, sites 2-3 in cell 1), matching
/// the run's topo::Topology. Splits the critpath wire/visibility
/// aggregates by link scope (LAN vs WAN).
bool parse_cells(const char* text, std::vector<std::uint16_t>* cell_of) {
  cell_of->clear();
  const char* p = text;
  while (true) {
    char* end = nullptr;
    const unsigned long cell = std::strtoul(p, &end, 10);
    if (end == p || cell > 0xFFFFu) return false;
    cell_of->push_back(static_cast<std::uint16_t>(cell));
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

/// Parses "WRITER:CLOCK" or "WRITER:CLOCK:DEST".
bool parse_op(const char* text, WriteId* w, std::optional<SiteId>* dest) {
  char* end = nullptr;
  const unsigned long writer = std::strtoul(text, &end, 10);
  if (end == text || *end != ':') return false;
  const char* p = end + 1;
  const unsigned long clock = std::strtoul(p, &end, 10);
  if (end == p || clock == 0) return false;
  w->writer = static_cast<SiteId>(writer);
  w->clock = static_cast<WriteClock>(clock);
  if (*end == '\0') {
    dest->reset();
    return true;
  }
  if (*end != ':') return false;
  p = end + 1;
  const unsigned long d = std::strtoul(p, &end, 10);
  if (end == p || *end != '\0') return false;
  *dest = static_cast<SiteId>(d);
  return true;
}

int run_explain(int argc, char** argv) {
  std::string trace_path;
  std::string out_path;
  bool allow_dropped = false;
  bool worst = false;
  std::optional<WriteId> op;
  std::optional<SiteId> dest;
  std::size_t depth = 8;
  for (int i = 2; i < argc; ++i) {
    if (const char* out = flag_value(argv, argc, i, "--out")) {
      out_path = out;
    } else if (const char* o = flag_value(argv, argc, i, "--op")) {
      WriteId w;
      if (!parse_op(o, &w, &dest)) {
        std::cerr << "error: --op expects WRITER:CLOCK[:DEST], got " << o << "\n";
        return usage(std::cerr, kExitUsage);
      }
      op = w;
    } else if (const char* d = flag_value(argv, argc, i, "--depth")) {
      depth = static_cast<std::size_t>(std::strtoull(d, nullptr, 10));
    } else if (std::strcmp(argv[i], "--worst") == 0) {
      worst = true;
    } else if (std::strcmp(argv[i], "--allow-dropped") == 0) {
      allow_dropped = true;
    } else if (argv[i][0] == '-') {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage(std::cerr, kExitUsage);
    } else if (trace_path.empty()) {
      trace_path = argv[i];
    } else {
      return usage(std::cerr, kExitUsage);
    }
  }
  if (trace_path.empty() || (worst && op.has_value())) {
    return usage(std::cerr, kExitUsage);
  }

  std::optional<obs::analysis::TraceDocument> trace;
  if (const int rc = load_trace(trace_path, allow_dropped, &trace); rc != kExitOk) {
    return rc;
  }
  obs::analysis::ProvenanceOptions options;
  options.dropped = trace->dropped;
  const obs::analysis::ProvenanceReport report =
      obs::analysis::analyze_provenance(trace->events, options);
  if (report.sm_sends == 0) {
    std::cerr << "error: " << trace_path
              << ": no provenance-annotated SM sends in this trace (recorded"
                 " before the provenance fields existed?)\n";
    return kExitInvalid;
  }
  if (!op.has_value()) {
    // Default to the worst op when none was named (also --worst).
    const obs::analysis::OpRecord* w = report.worst_op();
    if (w == nullptr) {
      std::cerr << "error: no activated op to explain\n";
      return kExitInvalid;
    }
    op = w->write;
    dest.reset();
  }
  bool found = false;
  const bool io_ok = with_output(out_path, [&](std::ostream& out) {
    found = report.write_explain(out, *op, dest, depth);
  });
  if (!io_ok) return kExitInvalid;
  if (!found) {
    std::cerr << "error: write " << op->writer << ":" << op->clock
              << (dest ? " (dest " + std::to_string(*dest) + ")" : std::string())
              << " not found in " << trace_path << "\n";
    return kExitInvalid;
  }
  return kExitOk;
}

int run_critpath(int argc, char** argv) {
  std::string paths[2];
  std::size_t n_paths = 0;
  std::string out_path;
  std::string label;
  bool allow_dropped = false;
  std::size_t top_k = 10;
  std::vector<std::uint16_t> cell_of;
  for (int i = 2; i < argc; ++i) {
    if (const char* out = flag_value(argv, argc, i, "--out")) {
      out_path = out;
    } else if (const char* l = flag_value(argv, argc, i, "--label")) {
      label = l;
    } else if (const char* t = flag_value(argv, argc, i, "--top")) {
      top_k = static_cast<std::size_t>(std::strtoull(t, nullptr, 10));
    } else if (const char* c = flag_value(argv, argc, i, "--cells")) {
      if (!parse_cells(c, &cell_of)) {
        std::cerr << "error: --cells expects a comma-separated cell index per"
                     " site (e.g. 0,0,1,1), got "
                  << c << "\n";
        return usage(std::cerr, kExitUsage);
      }
    } else if (std::strcmp(argv[i], "--allow-dropped") == 0) {
      allow_dropped = true;
    } else if (argv[i][0] == '-') {
      std::cerr << "error: unknown flag " << argv[i] << "\n";
      return usage(std::cerr, kExitUsage);
    } else if (n_paths < 2) {
      paths[n_paths++] = argv[i];
    } else {
      return usage(std::cerr, kExitUsage);
    }
  }
  if (n_paths == 0) return usage(std::cerr, kExitUsage);

  obs::analysis::Json reports[2];
  for (std::size_t k = 0; k < n_paths; ++k) {
    std::optional<obs::analysis::TraceDocument> trace;
    if (const int rc = load_trace(paths[k], allow_dropped, &trace); rc != kExitOk) {
      return rc;
    }
    obs::analysis::ProvenanceOptions options;
    options.label = label;
    options.dropped = trace->dropped;
    options.top_k = top_k;
    options.cell_of = cell_of;
    const obs::analysis::ProvenanceReport report =
        obs::analysis::analyze_provenance(trace->events, options);
    if (n_paths == 1) {
      const bool ok = with_output(
          out_path, [&](std::ostream& out) { report.write_json(out); });
      if (ok && !out_path.empty()) {
        std::cerr << "critpath: " << report.activated << " ops -> " << out_path
                  << "\n";
      }
      return ok ? kExitOk : kExitInvalid;
    }
    std::ostringstream buffer;
    report.write_json(buffer);
    std::string error;
    reports[k] = obs::analysis::Json::parse(buffer.str(), &error);
    if (!error.empty()) {
      std::cerr << "error: internal report of " << paths[k]
                << " is not valid JSON: " << error << "\n";
      return kExitInvalid;
    }
  }

  const bool ok = with_output(out_path, [&](std::ostream& out) {
    out << "{\"a\":\"" << obs::analysis::json_escape(paths[0]) << "\",\"b\":\""
        << obs::analysis::json_escape(paths[1]) << "\",\"diff\":";
    obs::analysis::write_json_diff(out, reports[0], reports[1]);
    out << ",\"schema\":\"causim.provenance.diff.v1\"}\n";
  });
  return ok ? kExitOk : kExitInvalid;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, kExitUsage);
  if (std::strcmp(argv[1], "analyze") == 0) return run_analyze(argc, argv);
  if (std::strcmp(argv[1], "diff") == 0) return run_diff(argc, argv);
  if (std::strcmp(argv[1], "timeseries") == 0) return run_timeseries(argc, argv);
  if (std::strcmp(argv[1], "explain") == 0) return run_explain(argc, argv);
  if (std::strcmp(argv[1], "critpath") == 0) return run_critpath(argc, argv);
  if (std::strcmp(argv[1], "--version") == 0) return version();
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    return usage(std::cout, kExitOk);
  }
  std::cerr << "error: unknown command " << argv[1] << "\n";
  return usage(std::cerr, kExitUsage);
}
