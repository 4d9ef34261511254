#include "obs/analysis/trace_reader.hpp"

#include <string_view>

namespace causim::obs::analysis {

namespace {

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool parse_trace_event_type(const std::string& name, TraceEventType* out) {
  // The enumerators are contiguous from 0 and to_string names every one of
  // them, so walking up to the first unnamed value covers the whole enum
  // however it grows.
  for (unsigned i = 0;; ++i) {
    const auto t = static_cast<TraceEventType>(i);
    const std::string_view known = to_string(t);
    if (known == "??") return false;
    if (name == known) {
      *out = t;
      return true;
    }
  }
}

bool parse_message_kind(const std::string& name, MessageKind* out) {
  for (const MessageKind k : kAllMessageKinds) {
    if (name == causim::to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::optional<TraceDocument> read_chrome_trace(const Json& doc, std::string* error) {
  if (!doc.is_object() || !doc.at("traceEvents").is_array()) {
    set_error(error, "not a Chrome trace object (no traceEvents array)");
    return std::nullopt;
  }
  TraceDocument out;
  out.dropped = static_cast<std::uint64_t>(doc.at("causim").at("dropped").number());
  out.events.reserve(doc.at("traceEvents").size());
  for (const Json& j : doc.at("traceEvents").array()) {
    if (!j.is_object()) {
      set_error(error, "traceEvents entry is not an object");
      return std::nullopt;
    }
    const std::string& ph = j.at("ph").str();
    if (ph == "M") continue;  // process_name metadata
    TraceEvent e;
    if (!parse_trace_event_type(j.at("name").str(), &e.type)) continue;
    if (!j.at("ts").is_number() || !j.at("pid").is_number()) {
      set_error(error, "event '" + j.at("name").str() + "' missing ts/pid");
      return std::nullopt;
    }
    e.site = static_cast<SiteId>(j.at("pid").number());
    e.ts = static_cast<SimTime>(j.at("ts").number());
    e.dur = ph == "X" ? static_cast<SimTime>(j.at("dur").number()) : 0;
    const Json& args = j.at("args");
    if (args.contains("kind")) parse_message_kind(args.at("kind").str(), &e.kind);
    e.peer = args.contains("peer") ? static_cast<SiteId>(args.at("peer").number())
                                   : kInvalidSite;
    e.a = static_cast<std::uint64_t>(args.at("a").number());
    e.b = static_cast<std::uint64_t>(args.at("b").number());
    // Provenance args are written only when nonzero (and never by
    // pre-provenance writers), so absence means 0.
    if (args.contains("c")) e.c = static_cast<std::uint64_t>(args.at("c").number());
    if (args.contains("d")) e.d = static_cast<std::uint64_t>(args.at("d").number());
    out.events.push_back(e);
  }
  if (error != nullptr) error->clear();
  return out;
}

}  // namespace causim::obs::analysis
