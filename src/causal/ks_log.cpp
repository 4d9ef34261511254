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

/// Reads a log's entry count. A count the remaining bytes cannot hold is
/// corrupt; refusing it here also bounds the one allocation a decode makes.
std::uint16_t read_count(serial::ByteReader& r) {
  const std::uint16_t count = r.get_u16();
  if (count > r.remaining() / kMinEntryWireBytes) {
    r.fail();
    return 0;
  }
  return count;
}

/// Reads an SM piggyback's header: the entry count, or 0 with the reader's
/// error latched. A universe other than dests(m)'s is malformed: the set
/// operations of decode_applied need dests(m)'s.
std::uint16_t read_receipt_header(serial::ByteReader& r, const KsLog::Receipt& m) {
  const SiteId n = r.get_u16();
  const std::uint16_t count = read_count(r);
  if (r.ok() && n != m.dests.universe_size()) r.fail();
  return r.ok() ? count : 0;
}

/// Walks a serialized log's entries through the serial load_* decoders,
/// checking each against the log's universe and its predecessor's id. It
/// works on a copy of the reader's cursor, which the compiler can keep in
/// registers across the stores into the log being built.
class EntryReader {
 public:
  EntryReader(const serial::ByteReader& r, SiteId n)
      : begin_(r.cursor()), p_(begin_), end_(begin_ + r.remaining()), cw_(r.clock_width()),
        n_(n) {}

  /// The next entry's id. A writer outside the universe, or an id that
  /// does not follow the previous one in (writer, clock) order, is
  /// malformed.
  bool id(WriteId& id) {
    p_ = serial::load_write_id(p_, end_, cw_, id);
    if (p_ == nullptr || id.writer >= n_ || (read_ != 0 && !(prev_ < id))) return false;
    prev_ = id;
    ++read_;
    return true;
  }

  /// The entry's dest list; one of another universe is malformed.
  bool dests(DestSet& d) {
    p_ = serial::load_dest_set(p_, end_, d);
    return p_ != nullptr && d.universe_size() == n_;
  }

  /// The entry's dest list, checked as dests() checks it but not built:
  /// `names` says whether it holds `s`.
  bool dests_naming(SiteId s, bool& names) {
    SiteId universe = 0;
    p_ = serial::scan_dest_set(p_, end_, s, universe, names);
    return p_ != nullptr && universe == n_;
  }

  /// Moves `r` past the entries read, or latches its error.
  void finish(serial::ByteReader& r, bool ok) const {
    if (ok) {
      r.skip(static_cast<std::size_t>(p_ - begin_));
    } else {
      r.fail();
    }
  }

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  serial::ClockWidth cw_;
  SiteId n_;
  WriteId prev_;
  std::size_t read_ = 0;
};

/// Implicit condition (1) for one entry: `s` is known to have applied the
/// entry's write, so it is no longer a destination to wait for.
template <typename Entry>
void erase_if_applied(Entry& e, SiteId s, const std::vector<WriteClock>& applied) {
  if (e.id.writer < applied.size() && e.id.clock <= applied[e.id.writer]) {
    e.dests.erase(s);
  }
}

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

template <typename Fix>
std::size_t KsLog::merge_walk(const KsLog& other, Fix fix, const Rules& rules) {
  CAUSIM_CHECK(n_ == other.n_, "log universe mismatch");
  if (this == &other) {
    const KsLog copy = other;  // the walk moves entries out of this log
    return merge_walk(copy, fix, rules);
  }
  // One walk over both sorted runs, applying add()'s rules to each entry of
  // `other`: `mine` is always this log's first entry not below it.
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  const auto emit = [&](const WriteId& id, DestSet&& dests) {
    fix(merged.emplace_back(id, std::move(dests)));
  };
  auto mine = entries_.begin();
  for (const Entry& theirs : other.entries_) {
    for (; mine != entries_.end() && mine->id < theirs.id; ++mine) {
      emit(mine->id, std::move(mine->dests));
    }
    if (mine != entries_.end() && mine->id == theirs.id) {
      mine->dests &= theirs.dests;
      emit(mine->id, std::move(mine->dests));
      ++mine;
    } else if (mine == entries_.end() || mine->id.writer != theirs.id.writer) {
      emit(theirs.id, DestSet(theirs.dests));  // absent here, and no newer entry of its writer
    }
  }
  for (; mine != entries_.end(); ++mine) emit(mine->id, std::move(mine->dests));
  entries_ = std::move(merged);
  const std::size_t size = entries_.size();
  clean(rules);
  return size;
}

void KsLog::merge(const KsLog& other) {
  if (this == &other) return;  // every entry intersects with itself
  merge_walk(other, [](Entry&) {}, Rules{false, false, false});
}

std::size_t KsLog::merge_and_clean(const KsLog& other, SiteId self,
                                   const std::vector<WriteClock>& applied, Rules rules) {
  return merge_walk(
      other, [&](Entry& e) { erase_if_applied(e, self, applied); }, rules);
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
  for (Entry& e : entries_) erase_if_applied(e, s, applied);
}

void KsLog::clean(const Rules& rules) {
  if (!rules.program_order && !rules.purge) return;
  // One backward walk: each writer's newest entry comes first. Kept
  // entries gather at the back, then move down once if any was dropped.
  DestSet newer(n_);
  SiteId writer = kInvalidSite;  // the writer of the entry after `e`
  auto kept = entries_.end();
  for (auto e = entries_.end(); e != entries_.begin();) {
    --e;
    if (e->id.writer != writer) {
      writer = e->id.writer;  // the writer's newest entry: its marker, kept as is
      if (rules.program_order) newer = e->dests;
    } else {
      if (rules.program_order) {
        e->dests -= newer;
        newer |= e->dests;
      }
      if (rules.purge && e->dests.empty()) continue;
    }
    if (--kept != e) *kept = std::move(*e);
  }
  entries_.erase(entries_.begin(), kept);
}

void KsLog::purge() { clean(Rules{false, false, true}); }

void KsLog::prune_by_program_order() { clean(Rules{false, true, false}); }

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
  // One resize to the exact size, then plain stores.
  const serial::ClockWidth cw = w.clock_width();
  std::uint8_t* p = w.extend(wire_bytes(cw));
  p = serial::store_le(p, n_, 2);
  p = serial::store_le(p, static_cast<std::uint16_t>(entries_.size()), 2);
  for (const Entry& e : entries_) {
    p = serial::store_write_id(p, e.id, cw);
    p = serial::store_dest_set(p, e.dests);
  }
}

KsLog KsLog::deserialize(serial::ByteReader& r) {
  KsLog log(r.get_u16());
  const std::uint16_t count = read_count(r);
  if (!r.ok()) return log;
  log.entries_.reserve(count);
  EntryReader in(r, log.n_);
  bool ok = true;
  WriteId id;
  for (std::uint16_t i = 0; ok && i < count; ++i) {
    ok = in.id(id);
    if (!ok) break;
    Entry& e = log.entries_.emplace_back();
    e.id = id;
    ok = in.dests(e.dests);
    if (!ok) log.entries_.pop_back();
  }
  in.finish(r, ok);
  return log;
}

void KsLog::scan_witnesses(serial::ByteReader& r, const Receipt& m,
                           const std::vector<WriteClock>& applied,
                           std::vector<WriteId>& waits_on) {
  const std::uint16_t count = read_receipt_header(r, m);
  if (!r.ok()) return;
  EntryReader in(r, m.dests.universe_size());
  WriteId id;
  bool names_self = false;
  for (std::uint16_t i = 0; i < count; ++i) {
    if (!in.id(id) || !in.dests_naming(m.self, names_self)) {
      in.finish(r, false);
      return;
    }
    if (names_self && applied[id.writer] < id.clock) waits_on.push_back(id);
  }
  in.finish(r, true);
}

KsLog KsLog::decode_applied(serial::ByteReader& r, const Receipt& m, Rules rules,
                            KsLog storage) {
  KsLog log = std::move(storage);
  log.entries_.clear();
  log.n_ = m.dests.universe_size();
  const std::uint16_t count = read_receipt_header(r, m);
  if (!r.ok()) return log;
  // The write's own entry: condition (1), it is applied here.
  DestSet own = m.dests;
  own.erase(m.self);
  bool own_pending = true;  // until the walk passes the write's position
  std::vector<Entry>& out = log.entries_;
  out.reserve(count + 1u);
  EntryReader in(r, log.n_);
  WriteId id;
  for (std::uint16_t i = 0; i < count; ++i) {
    if (!in.id(id)) {
      in.finish(r, false);
      return log;
    }
    bool is_own = false;
    if (own_pending && !(id < m.write)) {
      // add(write, own) at its position: intersect with the same write, be
      // obsolete behind a newer entry of its writer, else enter here.
      own_pending = false;
      is_own = id == m.write;
      if (!is_own && id.writer != m.write.writer) out.emplace_back(m.write, own);
    }
    DestSet& dests = out.emplace_back(id, DestSet()).dests;
    if (!in.dests(dests)) {
      in.finish(r, false);
      return log;
    }
    if (rules.prune_on_apply) dests -= m.dests;
    if (is_own) dests &= own;
  }
  if (own_pending) out.emplace_back(m.write, std::move(own));
  in.finish(r, true);
  log.clean(rules);
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
