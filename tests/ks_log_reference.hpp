// MapKsLog — a test-only reference model of causal::KsLog.
//
// This is the KS log as a std::map<WriteId, DestSet> with every rule
// written the direct way: add() one entry at a time, merge() as repeated
// add(), purge() by collecting doomed ids first. The differential test
// drives it and the flat KsLog with the same operations and requires
// identical entries and bytes after every step. It panics on malformed
// input (add() checks the universe), so feed it only well-formed bytes.
//
// Below it are Opt-Track's receive paths as separate passes over MapKsLog —
// the composition KsLog::decode_applied and KsLog::merge_and_clean fold
// into one walk each.
#pragma once

#include <iterator>
#include <map>
#include <vector>

#include "causal/protocol.hpp"
#include "common/dest_set.hpp"
#include "common/ids.hpp"
#include "common/panic.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace causim::causal::reference {

class MapKsLog {
 public:
  explicit MapKsLog(SiteId n) : n_(n) {}

  std::size_t size() const { return entries_.size(); }

  const DestSet* find(const WriteId& id) const {
    const auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  void add(const WriteId& id, const DestSet& dests) {
    CAUSIM_CHECK(dests.universe_size() == n_, "dest set universe mismatch");
    const auto it = entries_.lower_bound(id);
    if (it != entries_.end() && it->first == id) {
      it->second &= dests;
      return;
    }
    // Obsolete if a newer entry of the same writer exists.
    if (it != entries_.end() && it->first.writer == id.writer) return;
    entries_.emplace_hint(it, id, dests);
  }

  void merge(const MapKsLog& other) {
    CAUSIM_CHECK(n_ == other.n_, "log universe mismatch");
    for (const auto& [id, dests] : other.entries_) add(id, dests);
  }

  void prune_dests(const DestSet& d) {
    for (auto& [id, dests] : entries_) dests -= d;
  }

  void erase_dest_up_to(SiteId s, SiteId writer, WriteClock clock) {
    const auto lo = entries_.lower_bound(WriteId{writer, 0});
    const auto hi = entries_.upper_bound(WriteId{writer, clock});
    for (auto it = lo; it != hi; ++it) it->second.erase(s);
  }

  void erase_dest_everywhere(SiteId s) {
    for (auto& [id, dests] : entries_) dests.erase(s);
  }

  void prune_applied(SiteId s, const std::vector<WriteClock>& applied) {
    for (auto& [id, dests] : entries_) {
      if (id.writer < applied.size() && id.clock <= applied[id.writer]) dests.erase(s);
    }
  }

  void purge() {
    std::vector<WriteId> doomed;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.empty()) continue;
      const auto next = std::next(it);
      const bool is_latest_of_writer =
          next == entries_.end() || next->first.writer != it->first.writer;
      if (!is_latest_of_writer) doomed.push_back(it->first);
    }
    for (const WriteId& id : doomed) entries_.erase(id);
  }

  void prune_by_program_order() {
    if (entries_.size() < 2) return;
    DestSet newer(n_);
    SiteId current_writer = kInvalidSite;
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->first.writer != current_writer) {
        current_writer = it->first.writer;
        newer = DestSet(n_);
      } else {
        it->second -= newer;
      }
      newer |= it->second;
    }
  }

  WriteClock max_clock_of(SiteId writer) const {
    WriteClock max = 0;
    for (const auto& [id, dests] : entries_) {
      if (id.writer == writer) max = id.clock;
    }
    return max;
  }

  /// The activation predicate's witness as a full walk: the first entry
  /// naming `site` whose clock `applied` has not reached, or a null id.
  WriteId first_unapplied(SiteId site, const std::vector<WriteClock>& applied) const {
    WriteId first;
    for_each([&](const WriteId& id, const DestSet& dests) {
      if (is_null(first) && dests.contains(site) && applied[id.writer] < id.clock) {
        first = id;
      }
    });
    return first;
  }

  /// The causal-fetch guard built one add() at a time.
  MapKsLog naming(SiteId site) const {
    MapKsLog guard(n_);
    for_each([&](const WriteId& id, const DestSet& dests) {
      if (dests.contains(site)) guard.add(id, dests);
    });
    return guard;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, dests] : entries_) fn(id, dests);
  }

  void serialize(serial::ByteWriter& w) const {
    w.put_u16(n_);
    w.put_u16(static_cast<std::uint16_t>(entries_.size()));
    for (const auto& [id, dests] : entries_) {
      w.put_write_id(id);
      w.put_dest_set(dests);
    }
  }

  static MapKsLog deserialize(serial::ByteReader& r) {
    const SiteId n = r.get_u16();
    const std::uint16_t count = r.get_u16();
    MapKsLog log(n);
    for (std::uint16_t i = 0; i < count; ++i) {
      const WriteId id = r.get_write_id();
      log.add(id, r.get_dest_set());
    }
    return log;
  }

  std::size_t wire_bytes(serial::ClockWidth cw) const {
    std::size_t bytes = 4;
    for (const auto& [id, dests] : entries_) {
      bytes += 2 + static_cast<std::size_t>(cw) + dests.wire_bytes();
    }
    return bytes;
  }

 private:
  SiteId n_;
  std::map<WriteId, DestSet> entries_;
};

/// An SM's receipt, pass by pass: the LastWriteOn log apply() installs for
/// the SM's write `w`, multicast to `dests`, at site `self`. (The
/// activation predicate is piggyback.first_unapplied(self, Apply).)
inline MapKsLog sm_apply_multi_pass(const MapKsLog& piggyback, const WriteId& w,
                                    const DestSet& dests, SiteId self,
                                    const ProtocolOptions& options) {
  MapKsLog deps = piggyback;
  if (options.prune_on_apply) deps.prune_dests(dests);
  DestSet remaining = dests;
  remaining.erase(self);
  deps.add(w, remaining);
  if (options.prune_program_order) deps.prune_by_program_order();
  if (options.purge_markers) deps.purge();
  return deps;
}

/// A read's merge into the site's own log, pass by pass: MERGE, then
/// prune_applied, program order and purge. Returns the merged size.
inline std::size_t merge_read_multi_pass(MapKsLog& log, const MapKsLog& incoming, SiteId self,
                                         const std::vector<WriteClock>& applied,
                                         const ProtocolOptions& options) {
  log.merge(incoming);
  const std::size_t merged = log.size();
  log.prune_applied(self, applied);
  if (options.prune_program_order) log.prune_by_program_order();
  if (options.purge_markers) log.purge();
  return merged;
}

/// A local write's pass over the writer's own log after piggybacking it.
inline void local_write_multi_pass(MapKsLog& log, const WriteId& w, const DestSet& dests,
                                   SiteId self, const ProtocolOptions& options) {
  if (options.prune_on_send) log.prune_dests(dests);
  DestSet remaining = dests;
  remaining.erase(self);
  log.add(w, remaining);
  if (options.purge_markers) log.purge();
}

}  // namespace causim::causal::reference
