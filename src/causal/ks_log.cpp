#include "causal/ks_log.hpp"

#include <algorithm>
#include <iterator>

#include "common/panic.hpp"

namespace causim::causal {
namespace {

/// First entry of a sorted run whose id is not below `id`.
template <typename It>
It lower_bound_id(It first, It last, const WriteId& id) {
  return std::lower_bound(first, last, id,
                          [](const auto& e, const WriteId& key) { return e.id < key; });
}

/// Fewest bytes a serialized entry takes: writer u16, a 4-byte clock and an
/// empty dest list (universe u16 + count u16).
constexpr std::size_t kMinEntryWireBytes = 2 + 4 + 4;

}  // namespace

const DestSet* KsLog::find(const WriteId& id) const {
  const auto it = lower_bound_id(entries_.begin(), entries_.end(), id);
  return it != entries_.end() && it->id == id ? &it->dests : nullptr;
}

void KsLog::add(const WriteId& id, const DestSet& dests) {
  CAUSIM_CHECK(dests.universe_size() == n_, "dest set universe mismatch");
  auto it = lower_bound_id(entries_.begin(), entries_.end(), id);
  if (it != entries_.end() && it->id == id) {
    it->dests &= dests;
    return;
  }
  // Obsolete if a newer entry of the same writer exists (see header).
  if (it != entries_.end() && it->id.writer == id.writer) return;
  if (entries_.size() == entries_.capacity()) {
    const auto pos = it - entries_.begin();
    entries_.reserve(entries_.size() + 1);
    it = entries_.begin() + pos;
  }
  entries_.insert(it, Entry{id, dests});
}

void KsLog::merge(const KsLog& other) {
  CAUSIM_CHECK(n_ == other.n_, "log universe mismatch");
  if (this == &other) return;  // every entry intersects with itself
  // One walk over both sorted runs, applying add()'s rules to each entry of
  // `other`: `mine` is always this log's first entry not below it.
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  auto mine = entries_.begin();
  for (const Entry& theirs : other.entries_) {
    while (mine != entries_.end() && mine->id < theirs.id) {
      merged.push_back(std::move(*mine++));
    }
    if (mine != entries_.end() && mine->id == theirs.id) {
      mine->dests &= theirs.dests;
      merged.push_back(std::move(*mine++));
    } else if (mine == entries_.end() || mine->id.writer != theirs.id.writer) {
      merged.push_back(theirs);  // absent here, and no newer entry of its writer
    }
  }
  std::move(mine, entries_.end(), std::back_inserter(merged));
  entries_ = std::move(merged);
}

void KsLog::prune_dests(const DestSet& d) {
  for (Entry& e : entries_) e.dests -= d;
}

void KsLog::erase_dest_up_to(SiteId s, SiteId writer, WriteClock clock) {
  auto it = lower_bound_id(entries_.begin(), entries_.end(), WriteId{writer, 0});
  for (; it != entries_.end() && it->id <= WriteId{writer, clock}; ++it) {
    it->dests.erase(s);
  }
}

void KsLog::erase_dest_everywhere(SiteId s) {
  for (Entry& e : entries_) e.dests.erase(s);
}

void KsLog::prune_applied(SiteId s, const std::vector<WriteClock>& applied) {
  for (Entry& e : entries_) {
    if (e.id.writer < applied.size() && e.id.clock <= applied[e.id.writer]) {
      e.dests.erase(s);
    }
  }
}

void KsLog::purge() {
  // Most recent entry per writer survives even with an empty dest list (the
  // marker rule); every other empty entry is dropped. Compacts in place:
  // entries_[i + 1] is still unmoved when entry i is judged.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const bool is_latest_of_writer =
        i + 1 == entries_.size() || entries_[i + 1].id.writer != entries_[i].id.writer;
    if (entries_[i].dests.empty() && !is_latest_of_writer) continue;
    if (kept != i) entries_[kept] = std::move(entries_[i]);
    ++kept;
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(kept), entries_.end());
}

void KsLog::prune_by_program_order() {
  if (entries_.size() < 2) return;
  // Entries are ordered by (writer, clock); walk backwards accumulating the
  // union of newer dest lists per writer.
  DestSet newer(n_);
  for (std::size_t i = entries_.size(); i-- > 0;) {
    DestSet& dests = entries_[i].dests;
    const bool is_latest_of_writer =
        i + 1 == entries_.size() || entries_[i + 1].id.writer != entries_[i].id.writer;
    if (is_latest_of_writer) {
      newer = dests;
    } else {
      dests -= newer;
      newer |= dests;
    }
  }
}

WriteClock KsLog::max_clock_of(SiteId writer) const {
  // Entries are ordered by (writer, clock); the predecessor of the first
  // entry of writer+1 is writer's maximum, if it belongs to writer.
  const auto it = lower_bound_id(entries_.begin(), entries_.end(),
                                 WriteId{static_cast<SiteId>(writer + 1), 0});
  if (it == entries_.begin()) return 0;
  const WriteId& last = std::prev(it)->id;
  return last.writer == writer ? last.clock : 0;
}

const WriteId* KsLog::first_unapplied(SiteId site,
                                      const std::vector<WriteClock>& applied) const {
  for (const Entry& e : entries_) {
    if (e.dests.contains(site) && applied[e.id.writer] < e.id.clock) return &e.id;
  }
  return nullptr;
}

KsLog KsLog::naming(SiteId site) const {
  const auto names_site = [site](const Entry& e) { return e.dests.contains(site); };
  KsLog out(n_);
  const auto named = std::count_if(entries_.begin(), entries_.end(), names_site);
  out.entries_.reserve(static_cast<std::size_t>(named));
  std::copy_if(entries_.begin(), entries_.end(), std::back_inserter(out.entries_),
               names_site);
  return out;
}

void KsLog::serialize(serial::ByteWriter& w) const {
  w.put_u16(n_);
  w.put_u16(static_cast<std::uint16_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w.put_write_id(e.id);
    w.put_dest_set(e.dests);
  }
}

KsLog KsLog::deserialize(serial::ByteReader& r) {
  KsLog log(r.get_u16());
  const std::uint16_t count = r.get_u16();
  // A count the remaining bytes cannot hold is corrupt; refusing it here
  // also bounds the one allocation below.
  if (count > r.remaining() / kMinEntryWireBytes) {
    r.fail();
    return log;
  }
  log.entries_.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const WriteId id = r.get_write_id();
    DestSet dests = r.get_dest_set();
    if (!r.ok()) break;
    const bool in_order = log.entries_.empty() || log.entries_.back().id < id;
    if (dests.universe_size() != log.n_ || id.writer >= log.n_ || !in_order) {
      r.fail();
      break;
    }
    log.entries_.push_back(Entry{id, std::move(dests)});
  }
  return log;
}

std::size_t KsLog::wire_bytes(serial::ClockWidth cw) const {
  std::size_t bytes = 4;  // universe + count
  for (const Entry& e : entries_) {
    bytes += 2 + static_cast<std::size_t>(cw);  // WriteId
    bytes += e.dests.wire_bytes();
  }
  return bytes;
}

}  // namespace causim::causal
