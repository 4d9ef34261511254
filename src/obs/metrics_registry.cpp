#include "obs/metrics_registry.hpp"

#include <ostream>

#include "obs/analysis/json.hpp"

namespace causim::obs {

namespace {

using analysis::json_escape;
using analysis::json_number;

/// RFC 4180 field quoting: names containing a comma, quote or newline are
/// wrapped in quotes with inner quotes doubled, so a hostile metric name
/// cannot add columns to the long-form CSV.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

void write_summary_fields(std::ostream& out, const stats::Summary& s) {
  out << "\"count\": " << s.count() << ", \"mean\": " << json_number(s.mean())
      << ", \"min\": " << json_number(s.min()) << ", \"max\": " << json_number(s.max())
      << ", \"stddev\": " << json_number(s.stddev());
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

stats::Summary& MetricsRegistry::summary(const std::string& name) {
  return summaries_[name];
}

stats::Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                             double hi, std::size_t buckets) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, stats::Histogram(lo, hi, buckets)).first->second;
}

stats::Histogram& MetricsRegistry::histogram(const std::string& name,
                                             const stats::Histogram& like) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, like.empty_clone()).first->second;
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && summaries_.empty() &&
         histograms_.empty();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    mine.set(std::max(mine.value(), g.value()));
    mine.set(std::max(mine.high_water(), g.high_water()));
  }
  for (const auto& [name, s] : other.summaries_) summaries_[name] += s;
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second += h;  // panics on mismatched (lo, hi, buckets)
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": " << c.value();
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {\"value\": "
        << json_number(g.value()) << ", \"high_water\": " << json_number(g.high_water())
        << "}";
    first = false;
  }
  out << "\n  },\n  \"summaries\": {";
  first = true;
  for (const auto& [name, s] : summaries_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {";
    write_summary_fields(out, s);
    out << "}";
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {";
    write_summary_fields(out, h.summary());
    out << ", \"lo\": " << json_number(h.lo()) << ", \"hi\": " << json_number(h.hi())
        << ", \"buckets\": " << h.bucket_count() << ", \"overflow\": " << h.overflow()
        << ", \"quantiles\": {\"p50\": " << json_number(h.quantile(0.50))
        << ", \"p90\": " << json_number(h.quantile(0.90))
        << ", \"p99\": " << json_number(h.quantile(0.99))
        << ", \"p999\": " << json_number(h.quantile(0.999)) << "}";
    out << "}";
    first = false;
  }
  out << "\n  }\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "metric,type,field,value\n";
  for (const auto& [name, c] : counters_) {
    out << csv_field(name) << ",counter,value," << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << csv_field(name) << ",gauge,value," << json_number(g.value()) << "\n";
    out << csv_field(name) << ",gauge,high_water," << json_number(g.high_water()) << "\n";
  }
  const auto summary_rows = [&](const std::string& name, const char* type,
                                const stats::Summary& s) {
    out << csv_field(name) << "," << type << ",count," << s.count() << "\n";
    out << csv_field(name) << "," << type << ",mean," << json_number(s.mean()) << "\n";
    out << csv_field(name) << "," << type << ",min," << json_number(s.min()) << "\n";
    out << csv_field(name) << "," << type << ",max," << json_number(s.max()) << "\n";
  };
  for (const auto& [name, s] : summaries_) summary_rows(name, "summary", s);
  for (const auto& [name, h] : histograms_) {
    summary_rows(name, "histogram", h.summary());
    out << csv_field(name) << ",histogram,p50," << json_number(h.quantile(0.50)) << "\n";
    out << csv_field(name) << ",histogram,p90," << json_number(h.quantile(0.90)) << "\n";
    out << csv_field(name) << ",histogram,p99," << json_number(h.quantile(0.99)) << "\n";
    out << csv_field(name) << ",histogram,p999," << json_number(h.quantile(0.999))
        << "\n";
    out << csv_field(name) << ",histogram,overflow," << h.overflow() << "\n";
  }
}

}  // namespace causim::obs
