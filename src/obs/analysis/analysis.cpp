#include "obs/analysis/analysis.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace causim::obs::analysis {

namespace {

void write_summary(std::ostream& out, const stats::Summary& s) {
  out << "{\"count\": " << s.count() << ", \"mean\": " << json_number(s.mean())
      << ", \"min\": " << json_number(s.min()) << ", \"max\": " << json_number(s.max())
      << "}";
}

void write_activation(std::ostream& out, const ActivationStats& a,
                      const stats::Histogram* hist) {
  out << "{\"applies\": " << a.applies << ", \"buffered\": " << a.buffered
      << ", \"latency_us\": {\"count\": " << a.latency_us.count()
      << ", \"mean\": " << json_number(a.latency_us.mean())
      << ", \"min\": " << json_number(a.latency_us.min())
      << ", \"max\": " << json_number(a.latency_us.max());
  if (hist != nullptr) {
    out << ", \"p50\": " << json_number(hist->quantile(0.50))
        << ", \"p90\": " << json_number(hist->quantile(0.90))
        << ", \"p99\": " << json_number(hist->quantile(0.99))
        << ", \"p999\": " << json_number(hist->quantile(0.999));
  }
  out << "}}";
}

void write_kind_breakdown(std::ostream& out,
                          const std::array<KindBreakdown, kAllMessageKinds.size()>& kinds) {
  out << "{";
  bool first = true;
  for (const MessageKind kind : kAllMessageKinds) {
    const KindBreakdown& k = kinds[static_cast<std::size_t>(kind)];
    out << (first ? "" : ", ") << "\"" << causim::to_string(kind)
        << "\": {\"count\": " << k.count << ", \"bytes\": " << k.bytes
        << ", \"avg\": " << json_number(k.avg()) << "}";
    first = false;
  }
  out << "}";
}

void write_log_activity(std::ostream& out, const LogActivity& l) {
  out << "{\"merges\": " << l.merges << ", \"prunes\": " << l.prunes
      << ", \"merged_entries\": " << l.merged_entries
      << ", \"pruned_entries\": " << l.pruned_entries << "}";
}

void write_fault_activity(std::ostream& out, const FaultActivity& f) {
  out << "{\"drops\": " << f.drops << ", \"dropped_bytes\": " << f.dropped_bytes
      << ", \"retransmits\": " << f.retransmits
      << ", \"retransmitted_bytes\": " << f.retransmitted_bytes << "}";
}

/// Averages a dense sample stream into at most `max_points` time buckets
/// over [first.ts, last.ts]; sparse streams pass through untouched.
std::vector<OccupancyPoint> downsample(const std::vector<OccupancyPoint>& raw,
                                       std::size_t max_points) {
  if (max_points == 0 || raw.size() <= max_points) return raw;
  const SimTime t0 = raw.front().ts;
  const SimTime t1 = raw.back().ts;
  if (t1 <= t0) return {raw.back()};
  std::vector<OccupancyPoint> out;
  out.reserve(max_points);
  const auto buckets = static_cast<SimTime>(max_points);
  std::size_t i = 0;
  for (SimTime b = 0; b < buckets; ++b) {
    const SimTime edge = t0 + ((t1 - t0) * (b + 1)) / buckets;
    double entries = 0.0, bytes = 0.0;
    std::uint64_t n = 0;
    while (i < raw.size() && (raw[i].ts <= edge || b == buckets - 1)) {
      entries += raw[i].entries;
      bytes += raw[i].bytes;
      ++n;
      ++i;
    }
    if (n > 0) {
      out.push_back({edge, entries / static_cast<double>(n),
                     bytes / static_cast<double>(n)});
    }
  }
  return out;
}

}  // namespace

AnalysisReport analyze(const std::vector<TraceEvent>& events,
                       const AnalysisOptions& options) {
  AnalysisReport report;
  report.label = options.label;
  report.events = events.size();
  report.dropped = options.dropped;

  std::map<SiteId, std::vector<OccupancyPoint>> raw_series;
  bool first_ts = true;
  for (const TraceEvent& e : events) {
    if (e.site != kInvalidSite) {
      report.sites = std::max<SiteId>(report.sites, static_cast<SiteId>(e.site + 1));
    }
    if (first_ts) {
      report.t_begin = e.ts;
      report.t_end = e.ts;
      first_ts = false;
    }
    report.t_begin = std::min(report.t_begin, e.ts);
    report.t_end = std::max(report.t_end, e.ts + e.dur);

    switch (e.type) {
      case TraceEventType::kActivated: {
        ActivationStats& site = report.activation_site[e.site];
        ++report.activation_total.applies;
        ++site.applies;
        if (e.b != 0) {
          ++report.activation_total.buffered;
          ++site.buffered;
          const auto waited = static_cast<double>(e.dur);
          report.activation_total.latency_us.record(waited);
          report.activation_hist.record(waited);
          site.latency_us.record(waited);
        }
        break;
      }
      case TraceEventType::kSend: {
        const auto k = static_cast<std::size_t>(e.kind);
        report.send_kind[k].count += 1;
        report.send_kind[k].bytes += e.b;
        auto& site = report.send_site[e.site];
        site[k].count += 1;
        site[k].bytes += e.b;
        break;
      }
      case TraceEventType::kLogMerge: {
        LogActivity& site = report.log_site[e.site];
        ++report.log_total.merges;
        ++site.merges;
        const std::uint64_t added = e.b > e.a ? e.b - e.a : 0;
        report.log_total.merged_entries += added;
        site.merged_entries += added;
        break;
      }
      case TraceEventType::kLogPrune: {
        LogActivity& site = report.log_site[e.site];
        ++report.log_total.prunes;
        ++site.prunes;
        const std::uint64_t removed = e.a > e.b ? e.a - e.b : 0;
        report.log_total.pruned_entries += removed;
        site.pruned_entries += removed;
        break;
      }
      case TraceEventType::kDrop: {
        FaultActivity& site = report.faults_site[e.site];
        ++report.faults_total.drops;
        ++site.drops;
        report.faults_total.dropped_bytes += e.b;
        site.dropped_bytes += e.b;
        break;
      }
      case TraceEventType::kRetransmit: {
        FaultActivity& site = report.faults_site[e.site];
        ++report.faults_total.retransmits;
        ++site.retransmits;
        report.faults_total.retransmitted_bytes += e.b;
        site.retransmitted_bytes += e.b;
        break;
      }
      case TraceEventType::kTimeSample:
        raw_series[e.site].push_back({e.ts, static_cast<double>(e.c),
                                      static_cast<double>(e.d)});
        break;
      default:
        break;
    }
  }

  for (auto& [site, raw] : raw_series) {
    SiteOccupancy occ;
    occ.samples = raw.size();
    for (const OccupancyPoint& p : raw) {
      occ.entries.record(p.entries);
      occ.bytes.record(p.bytes);
    }
    occ.series = downsample(raw, options.max_series_points);
    report.occupancy.emplace(site, std::move(occ));
  }
  return report;
}

void AnalysisReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"schema\": \"causim.analysis.v1\",\n";
  out << "  \"label\": \"" << json_escape(label) << "\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"dropped\": " << dropped << ",\n";
  out << "  \"sites\": " << sites << ",\n";
  out << "  \"span_us\": {\"begin\": " << t_begin << ", \"end\": " << t_end << "},\n";

  out << "  \"activation\": {\n    \"total\": ";
  write_activation(out, activation_total, &activation_hist);
  out << ",\n    \"per_site\": {";
  bool first = true;
  for (const auto& [site, a] : activation_site) {
    out << (first ? "\n" : ",\n") << "      \"" << site << "\": ";
    write_activation(out, a, nullptr);
    first = false;
  }
  out << "\n    }\n  },\n";

  out << "  \"metadata_attribution\": {\n    \"per_kind\": ";
  write_kind_breakdown(out, send_kind);
  out << ",\n    \"per_site\": {";
  first = true;
  for (const auto& [site, kinds] : send_site) {
    out << (first ? "\n" : ",\n") << "      \"" << site << "\": ";
    write_kind_breakdown(out, kinds);
    first = false;
  }
  out << "\n    },\n    \"log\": {\n      \"total\": ";
  write_log_activity(out, log_total);
  out << ",\n      \"per_site\": {";
  first = true;
  for (const auto& [site, l] : log_site) {
    out << (first ? "\n" : ",\n") << "        \"" << site << "\": ";
    write_log_activity(out, l);
    first = false;
  }
  out << "\n      }\n    }\n  },\n";

  out << "  \"faults\": {\n    \"total\": ";
  write_fault_activity(out, faults_total);
  out << ",\n    \"per_site\": {";
  first = true;
  for (const auto& [site, f] : faults_site) {
    out << (first ? "\n" : ",\n") << "      \"" << site << "\": ";
    write_fault_activity(out, f);
    first = false;
  }
  out << "\n    }\n  },\n";

  out << "  \"log_occupancy\": {\n    \"per_site\": {";
  first = true;
  for (const auto& [site, occ] : occupancy) {
    out << (first ? "\n" : ",\n") << "      \"" << site
        << "\": {\"samples\": " << occ.samples << ", \"entries\": ";
    write_summary(out, occ.entries);
    out << ", \"bytes\": ";
    write_summary(out, occ.bytes);
    out << ", \"series\": [";
    bool p_first = true;
    for (const OccupancyPoint& p : occ.series) {
      out << (p_first ? "" : ", ") << "{\"ts\": " << p.ts
          << ", \"entries\": " << json_number(p.entries)
          << ", \"bytes\": " << json_number(p.bytes)
          << "}";
      p_first = false;
    }
    out << "]}";
    first = false;
  }
  out << "\n    }\n  }\n}\n";
}

std::string AnalysisReport::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

namespace {

void diff_value(std::ostream& out, const Json& a, const Json& b) {
  if (a.type() == b.type()) {
    switch (a.type()) {
      case Json::Type::kNumber:
        if (a.number() == b.number()) {
          a.write(out);
        } else {
          out << "{\"a\": " << json_number(a.number())
              << ", \"b\": " << json_number(b.number())
              << ", \"delta\": " << json_number(b.number() - a.number()) << "}";
        }
        return;
      case Json::Type::kObject: {
        out << "{";
        // Union of keys; both maps are sorted, so a two-pointer merge keeps
        // the output key-sorted and deterministic.
        auto ia = a.object().begin();
        auto ib = b.object().begin();
        bool first = true;
        const auto emit_key = [&](const std::string& key) {
          out << (first ? "" : ", ") << "\"" << json_escape(key) << "\": ";
          first = false;
        };
        while (ia != a.object().end() || ib != b.object().end()) {
          if (ib == b.object().end() ||
              (ia != a.object().end() && ia->first < ib->first)) {
            emit_key(ia->first);
            out << "{\"a\": ";
            ia->second.write(out);
            out << ", \"b\": null}";
            ++ia;
          } else if (ia == a.object().end() || ib->first < ia->first) {
            emit_key(ib->first);
            out << "{\"a\": null, \"b\": ";
            ib->second.write(out);
            out << "}";
            ++ib;
          } else {
            emit_key(ia->first);
            diff_value(out, ia->second, ib->second);
            ++ia;
            ++ib;
          }
        }
        out << "}";
        return;
      }
      case Json::Type::kArray:
        if (a.size() != b.size()) {
          out << "{\"a_length\": " << a.size() << ", \"b_length\": " << b.size()
              << "}";
          return;
        }
        out << "[";
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (i != 0) out << ", ";
          diff_value(out, a.at(i), b.at(i));
        }
        out << "]";
        return;
      default:
        break;
    }
  }
  if (a == b) {
    a.write(out);
    return;
  }
  out << "{\"a\": ";
  a.write(out);
  out << ", \"b\": ";
  b.write(out);
  out << "}";
}

}  // namespace

void write_json_diff(std::ostream& out, const Json& a, const Json& b) {
  diff_value(out, a, b);
}

}  // namespace causim::obs::analysis
