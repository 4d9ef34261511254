#include "obs/analysis/provenance.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

#include "obs/analysis/json.hpp"

namespace causim::obs::analysis {

namespace {

SiteId dep_writer(std::uint64_t packed) {
  return static_cast<SiteId>((packed >> 32) & 0xFFFFu);
}

WriteClock dep_value(std::uint64_t packed) {
  return static_cast<WriteClock>(packed & 0xFFFFFFFFull);
}

bool dep_is_ordinal(std::uint64_t packed) {
  return (packed & kBlockingDepOrdinalBit) != 0;
}

/// The instant an event was *emitted* at. Instants are emitted at ts;
/// kOpComplete / kActivated / kDepSatisfied are spans emitted when the span
/// closes (ts + dur); kWireDelay is the exception — it is emitted at send
/// time and its dur reaches into the future. Within one DES run this clock
/// is non-decreasing; threads emit a few µs out of stamp order. A run that
/// starts over from time 0 drops it far below everything seen so far, so
/// falling under half the epoch's running maximum marks the boundary
/// between concatenated runs (multi-seed experiments reuse one sink).
SimTime emission_time(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kOpComplete:
    case TraceEventType::kActivated:
    case TraceEventType::kDepSatisfied:
      return e.ts + e.dur;
    default:
      return e.ts;
  }
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Join state reset at every epoch (run) boundary.
struct EpochState {
  /// (packed wid, dest) -> index into report.ops.
  std::map<std::pair<std::uint64_t, SiteId>, std::size_t> open;
  /// (origin, dest) -> op awaiting its first kWireDelay on that channel.
  std::map<std::pair<SiteId, SiteId>, std::size_t> wire_slot;
  /// (dest, writer) -> packed wids of writer's SMs applied at dest, in
  /// apply order (resolves ordinal blockers: Full-Track counts
  /// per-destination deliveries, not writer clocks).
  std::map<std::pair<SiteId, SiteId>, std::vector<std::uint64_t>> activations;
  /// site -> (var, ts) of the last locally issued write (sched segment).
  std::map<SiteId, std::pair<VarId, SimTime>> last_issue;
};

void write_stats(std::ostream& out, const SegmentStats& s) {
  const double mean = s.count > 0 ? s.total_us / static_cast<double>(s.count) : 0.0;
  out << "{\"count\": " << s.count << ", \"total\": " << json_number(s.total_us)
      << ", \"mean\": " << json_number(mean) << ", \"max\": " << json_number(s.max_us)
      << "}";
}

std::string fmt_wid(WriteId w) {
  return std::to_string(w.writer) + ":" + std::to_string(w.clock);
}

std::string fmt_blocker(std::uint64_t packed) {
  if (dep_is_ordinal(packed)) {
    return "writer " + std::to_string(dep_writer(packed)) + " apply #" +
           std::to_string(dep_value(packed));
  }
  return "write " + fmt_wid(unpack_write_id(packed));
}

}  // namespace

ProvenanceReport analyze_provenance(const std::vector<TraceEvent>& events,
                                    const ProvenanceOptions& options) {
  ProvenanceReport report;
  report.label = options.label;
  report.events = events.size();
  report.dropped = options.dropped;
  report.scope_split = !options.cell_of.empty();

  EpochState epoch;
  std::uint32_t epoch_id = 0;
  SimTime epoch_max = 0;  // latest emission time of the current epoch
  std::vector<std::uint8_t> chain_closed;  // parallel to report.ops

  const auto find_open = [&](std::uint64_t wid, SiteId dest) -> std::size_t {
    const auto it = epoch.open.find({wid, dest});
    return it == epoch.open.end() ? kNone : it->second;
  };

  for (const TraceEvent& e : events) {
    if (e.site != kInvalidSite) {
      report.sites = std::max<SiteId>(report.sites, static_cast<SiteId>(e.site + 1));
    }
    const SimTime emitted = emission_time(e);
    if (emitted < epoch_max / 2) {
      ++epoch_id;
      epoch = EpochState{};
      epoch_max = emitted;
    }
    epoch_max = std::max(epoch_max, emitted);

    switch (e.type) {
      case TraceEventType::kOpIssue:
        if (e.b == 1) epoch.last_issue[e.site] = {static_cast<VarId>(e.a), e.ts};
        break;

      case TraceEventType::kSend: {
        if (e.kind != MessageKind::kSM || e.c == 0) break;
        ++report.sm_sends;
        OpRecord op;
        op.write = unpack_write_id(e.c);
        op.origin = e.site;
        op.dest = e.peer;
        op.var = static_cast<VarId>(e.a);
        op.epoch = epoch_id;
        op.t_send = e.ts;
        const auto issue = epoch.last_issue.find(e.site);
        if (issue != epoch.last_issue.end() && issue->second.first == op.var) {
          op.t_issue = issue->second.second;
          op.sched = e.ts - issue->second.second;
        }
        const std::size_t idx = report.ops.size();
        report.ops.push_back(std::move(op));
        chain_closed.push_back(0);
        epoch.open[{e.c, e.peer}] = idx;
        epoch.wire_slot[{e.site, e.peer}] = idx;
        break;
      }

      case TraceEventType::kWireDelay: {
        const auto slot = epoch.wire_slot.find({e.site, e.peer});
        if (slot != epoch.wire_slot.end()) {
          report.ops[slot->second].wire = e.dur;
          epoch.wire_slot.erase(slot);
        }
        break;
      }

      case TraceEventType::kDrop: {
        const auto slot = epoch.wire_slot.find({e.site, e.peer});
        if (slot != epoch.wire_slot.end()) {
          report.ops[slot->second].dropped_first_tx = true;
          epoch.wire_slot.erase(slot);
        }
        break;
      }

      case TraceEventType::kRetransmit:
        // A retransmission on this channel means any still-unmatched SM
        // frame never made a clean first hop; leave its wire at 0 so the
        // whole transit counts as arq.
        epoch.wire_slot.erase({e.site, e.peer});
        break;

      case TraceEventType::kBuffered: {
        if (e.c == 0) break;
        const std::size_t idx = find_open(e.c, e.site);
        if (idx != kNone) report.ops[idx].buffered = true;
        break;
      }

      case TraceEventType::kDepSatisfied: {
        const std::size_t idx = find_open(e.b, e.site);
        if (idx == kNone) break;
        DepSegment seg;
        seg.blocker = e.c;
        seg.since = e.ts;
        seg.wait = e.dur;
        if (dep_is_ordinal(e.c)) {
          const auto acts = epoch.activations.find({e.site, dep_writer(e.c)});
          const auto ordinal = static_cast<std::size_t>(dep_value(e.c));
          if (acts != epoch.activations.end() && ordinal >= 1 &&
              ordinal <= acts->second.size()) {
            seg.blocker_wid = acts->second[ordinal - 1];
          }
        } else {
          seg.blocker_wid = e.c;
        }
        report.ops[idx].segments.push_back(seg);
        if (e.d == 0) chain_closed[idx] = 1;
        break;
      }

      case TraceEventType::kActivated: {
        if (e.c == 0) break;
        const std::size_t idx = find_open(e.c, e.site);
        if (idx != kNone) {
          OpRecord& op = report.ops[idx];
          op.t_recv = e.ts;
          op.t_apply = e.ts + e.dur;
          op.dep_wait = e.dur;
          op.activated = true;
          if (e.b != 0) op.buffered = true;
          // wire + arq = t_recv - t_send by definition; a matched wire
          // delay exceeding the transit means the trace is inconsistent.
          const SimTime transit = op.t_recv - op.t_send;
          if (op.wire > transit || transit < 0) {
            ++report.sum_mismatch;
            op.wire = std::max<SimTime>(transit, 0);
          }
          op.arq = std::max<SimTime>(transit, 0) - op.wire;
          op.apply = op.visibility() - op.wire - op.arq - op.dep_wait;
          if (op.buffered) {
            // The kDepSatisfied segments must tile [receipt, apply).
            SimTime tiled = 0;
            for (const DepSegment& s : op.segments) tiled += s.wait;
            const bool ok = chain_closed[idx] != 0 && !op.segments.empty() &&
                            op.segments.front().since == op.t_recv &&
                            tiled == op.dep_wait;
            if (!ok) ++report.unresolved;
          }
        }
        epoch.activations[{e.site, e.peer}].push_back(e.c);
        break;
      }

      default:
        break;
    }
  }
  report.epochs = epoch_id + 1;

  for (const OpRecord& op : report.ops) {
    if (!op.activated) {
      ++report.unmatched_sends;
      if (op.buffered) ++report.unresolved;
      continue;
    }
    ++report.activated;
    if (op.buffered) ++report.buffered;
    if (op.dropped_first_tx) ++report.dropped_first_tx;
    report.sched.record(op.sched);
    report.wire.record(op.wire);
    report.arq.record(op.arq);
    report.dep_wait.record(op.dep_wait);
    report.apply.record(op.apply);
    report.visibility.record(op.visibility());
    if (report.scope_split && op.origin < options.cell_of.size() &&
        op.dest < options.cell_of.size()) {
      const bool wan = options.cell_of[op.origin] != options.cell_of[op.dest];
      (wan ? report.wire_wan : report.wire_lan).record(op.wire);
      (wan ? report.visibility_wan : report.visibility_lan)
          .record(op.visibility());
    }
    SiteCritpath& site = report.per_site[op.dest];
    ++site.activated;
    if (op.buffered) ++site.buffered;
    site.wire_us += static_cast<double>(op.wire);
    site.arq_us += static_cast<double>(op.arq);
    site.dep_wait_us += static_cast<double>(op.dep_wait);
    site.visibility_us += static_cast<double>(op.visibility());
    for (const DepSegment& s : op.segments) {
      BlockedOnWriter& w = report.blocked_on_writer[dep_writer(s.blocker)];
      ++w.segments;
      w.wait_us += static_cast<double>(s.wait);
    }
  }

  std::vector<std::size_t> worst;
  worst.reserve(report.ops.size());
  for (std::size_t i = 0; i < report.ops.size(); ++i) {
    if (report.ops[i].activated) worst.push_back(i);
  }
  std::sort(worst.begin(), worst.end(), [&](std::size_t a, std::size_t b) {
    const OpRecord& x = report.ops[a];
    const OpRecord& y = report.ops[b];
    if (x.visibility() != y.visibility()) return x.visibility() > y.visibility();
    if (x.write != y.write) return x.write < y.write;
    return x.dest < y.dest;
  });
  if (worst.size() > options.top_k) worst.resize(options.top_k);
  report.top_ops = std::move(worst);
  return report;
}

std::vector<const OpRecord*> ProvenanceReport::ops_of(WriteId w) const {
  std::vector<const OpRecord*> out;
  for (const OpRecord& op : ops) {
    if (op.write == w) out.push_back(&op);
  }
  return out;
}

const OpRecord* ProvenanceReport::find_op(WriteId w, SiteId dest) const {
  for (const OpRecord& op : ops) {
    if (op.write == w && op.dest == dest) return &op;
  }
  return nullptr;
}

const OpRecord* ProvenanceReport::worst_op() const {
  return top_ops.empty() ? nullptr : &ops[top_ops.front()];
}

const OpRecord* ProvenanceReport::predecessor(const OpRecord& op,
                                              const DepSegment& s) const {
  if (s.blocker_wid == 0) return nullptr;
  const WriteId w = unpack_write_id(s.blocker_wid);
  for (const OpRecord& cand : ops) {
    if (cand.write == w && cand.dest == op.dest && cand.epoch == op.epoch) {
      return &cand;
    }
  }
  return nullptr;
}

void ProvenanceReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"schema\": \"causim.provenance.v1\",\n";
  out << "  \"label\": \"" << json_escape(label) << "\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"dropped\": " << dropped << ",\n";
  out << "  \"sites\": " << sites << ",\n";
  out << "  \"epochs\": " << epochs << ",\n";

  out << "  \"ops\": {\"sm_sends\": " << sm_sends << ", \"activated\": " << activated
      << ", \"buffered\": " << buffered << ", \"unmatched_sends\": " << unmatched_sends
      << ", \"unresolved\": " << unresolved << ", \"sum_mismatch\": " << sum_mismatch
      << ", \"dropped_first_tx\": " << dropped_first_tx << "},\n";

  out << "  \"segments\": {\n";
  out << "    \"sched_us\": ";
  write_stats(out, sched);
  out << ",\n    \"wire_us\": ";
  write_stats(out, wire);
  out << ",\n    \"arq_us\": ";
  write_stats(out, arq);
  out << ",\n    \"dep_wait_us\": ";
  write_stats(out, dep_wait);
  out << ",\n    \"apply_us\": ";
  write_stats(out, apply);
  out << ",\n    \"visibility_us\": ";
  write_stats(out, visibility);
  const double vis = visibility.total_us;
  const auto share = [&](double x) { return vis > 0 ? x / vis : 0.0; };
  out << ",\n    \"share\": {\"wire\": " << json_number(share(wire.total_us))
      << ", \"arq\": " << json_number(share(arq.total_us))
      << ", \"dep_wait\": " << json_number(share(dep_wait.total_us))
      << ", \"apply\": " << json_number(share(apply.total_us)) << "}";
  // Link-scope split only with a cell map, so reports of flat runs stay
  // byte-identical to the pre-topology schema.
  if (scope_split) {
    out << ",\n    \"wire_lan_us\": ";
    write_stats(out, wire_lan);
    out << ",\n    \"wire_wan_us\": ";
    write_stats(out, wire_wan);
    out << ",\n    \"visibility_lan_us\": ";
    write_stats(out, visibility_lan);
    out << ",\n    \"visibility_wan_us\": ";
    write_stats(out, visibility_wan);
  }
  out << "\n  },\n";

  out << "  \"per_site\": {";
  bool first = true;
  for (const auto& [site, s] : per_site) {
    out << (first ? "\n" : ",\n") << "    \"" << site
        << "\": {\"activated\": " << s.activated << ", \"buffered\": " << s.buffered
        << ", \"wire_us\": " << json_number(s.wire_us)
        << ", \"arq_us\": " << json_number(s.arq_us)
        << ", \"dep_wait_us\": " << json_number(s.dep_wait_us)
        << ", \"visibility_us\": " << json_number(s.visibility_us) << "}";
    first = false;
  }
  out << "\n  },\n";

  out << "  \"blocked_on\": {\n    \"per_writer\": {";
  first = true;
  for (const auto& [writer, w] : blocked_on_writer) {
    out << (first ? "\n" : ",\n") << "      \"" << writer
        << "\": {\"segments\": " << w.segments
        << ", \"wait_us\": " << json_number(w.wait_us)
        << "}";
    first = false;
  }
  out << "\n    }\n  },\n";

  out << "  \"top_ops\": [";
  first = true;
  for (const std::size_t idx : top_ops) {
    const OpRecord& op = ops[idx];
    out << (first ? "\n" : ",\n") << "    {\"writer\": " << op.write.writer
        << ", \"clock\": " << op.write.clock << ", \"var\": " << op.var
        << ", \"origin\": " << op.origin << ", \"dest\": " << op.dest
        << ", \"epoch\": " << op.epoch << ", \"t_send\": " << op.t_send
        << ", \"visibility_us\": " << op.visibility()
        << ", \"sched_us\": " << op.sched << ", \"wire_us\": " << op.wire
        << ", \"arq_us\": " << op.arq << ", \"dep_wait_us\": " << op.dep_wait
        << ", \"apply_us\": " << op.apply
        << ", \"dropped_first_tx\": " << (op.dropped_first_tx ? "true" : "false")
        << ", \"chain\": [";
    bool seg_first = true;
    for (const DepSegment& s : op.segments) {
      out << (seg_first ? "" : ", ") << "{\"blocker_writer\": " << dep_writer(s.blocker)
          << ", \"blocker_value\": " << dep_value(s.blocker)
          << ", \"ordinal\": " << (dep_is_ordinal(s.blocker) ? "true" : "false")
          << ", \"wait_us\": " << s.wait << ", \"resolved\": ";
      if (s.blocker_wid != 0) {
        const WriteId w = unpack_write_id(s.blocker_wid);
        out << "{\"writer\": " << w.writer << ", \"clock\": " << w.clock;
        if (const OpRecord* pred = predecessor(op, s)) {
          out << ", \"var\": " << pred->var << ", \"visibility_us\": "
              << pred->visibility();
        }
        out << "}";
      } else {
        out << "null";
      }
      out << "}";
      seg_first = false;
    }
    out << "]}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

namespace {

/// Recursive critical-path printer: the op itself, then the predecessor
/// that closed its *last* dependency segment (the write whose apply
/// finally made the activation predicate true), and so on.
void write_critical_path(std::ostream& out, const ProvenanceReport& report,
                         const OpRecord& op, std::size_t depth,
                         std::size_t max_depth) {
  const std::string pad(5 + depth * 2, ' ');
  out << pad << (depth == 0 ? "" : "`- ") << "write " << fmt_wid(op.write)
      << " (var " << op.var << ") " << op.origin << "->" << op.dest
      << "  visibility " << op.visibility() << " us"
      << " [wire " << op.wire << " | arq " << op.arq << " | dep_wait "
      << op.dep_wait << "]\n";
  if (depth >= max_depth || op.segments.empty()) return;
  const DepSegment& last = op.segments.back();
  const OpRecord* pred = report.predecessor(op, last);
  if (pred == nullptr) {
    out << pad << "  `- gated " << last.wait << " us by " << fmt_blocker(last.blocker)
        << " (predecessor not in trace window)\n";
    return;
  }
  out << pad << "  gated " << last.wait << " us by:\n";
  write_critical_path(out, report, *pred, depth + 1, max_depth);
}

}  // namespace

bool ProvenanceReport::write_explain(std::ostream& out, WriteId w,
                                     std::optional<SiteId> dest,
                                     std::size_t max_depth) const {
  const std::vector<const OpRecord*> deliveries = ops_of(w);
  bool any = false;
  for (const OpRecord* op : deliveries) {
    if (dest.has_value() && op->dest != *dest) continue;
    if (!any) {
      out << "write " << fmt_wid(w) << " (var " << op->var << ") issued by site "
          << op->origin << "\n";
    }
    any = true;
    out << "  -> site " << op->dest << ": sent @" << op->t_send;
    if (!op->activated) {
      out << "  (never activated inside the trace window)\n";
      continue;
    }
    out << " received @" << op->t_recv << " applied @" << op->t_apply
        << "  visibility " << op->visibility() << " us\n";
    out << "     segments: sched " << op->sched << " | wire " << op->wire
        << " | arq " << op->arq << " | dep_wait " << op->dep_wait << " | apply "
        << op->apply << (op->dropped_first_tx ? "  (first transmission dropped)" : "")
        << "\n";
    if (!op->segments.empty()) {
      out << "     dependency wait:\n";
      for (const DepSegment& s : op->segments) {
        out << "       [" << s.since << " .. " << (s.since + s.wait) << ")  "
            << s.wait << " us  blocked on " << fmt_blocker(s.blocker);
        if (s.blocker_wid != 0 && dep_is_ordinal(s.blocker)) {
          out << " -> write " << fmt_wid(unpack_write_id(s.blocker_wid));
        }
        out << "\n";
      }
    }
    out << "     critical path:\n";
    write_critical_path(out, *this, *op, 0, max_depth);
  }
  return any;
}

}  // namespace causim::obs::analysis
