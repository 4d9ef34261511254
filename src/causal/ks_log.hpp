// KsLog — the Opt-Track local log LOG_i = {⟨j, clock_j, Dests⟩} (§III-B).
//
// This is the Kshemkalyani–Singhal causal-ordering log adapted to
// distributed shared memory: each entry names a write operation in the
// local causal past (under →co) together with the destination sites for
// which the "this write must be applied there first" constraint is still
// known to be necessary. Destination lists only ever shrink from the true
// replica set — via the two implicit conditions of §III-B — so stale
// entries can waste bytes but never invent constraints (hence never block
// progress).
//
// An entry whose dest list became empty is a *marker*: it no longer imposes
// constraints, but during MERGE it suppresses the resurrection of dest info
// another site still carries for the same write. PURGE keeps at most the
// most recent such marker per writer (the paper's rule).
//
// Representation: one vector of {WriteId, DestSet} entries sorted by
// (writer, clock), so a log is one allocation and every operation is one
// linear pass (merge walks the two sorted runs together). Every site keeps
// one log per variable it holds (the LastWriteOn logs), so stored logs
// carry no geometric slack: add() grows the capacity by one entry.
//
// Opt-Track's receive paths cost one walk per message. An SM's receipt is
// a scan that builds nothing (scan_witnesses): it validates the piggyback
// and keeps the writes the activation predicate waits on. The log the SM
// leaves (decode_applied) and a read's merge (merge_and_clean) are one walk
// over the log they build plus one backward pass for the rules that look
// along a writer's entries (program order, purge), which compacts it at
// most once.
#pragma once

#include <vector>

#include "common/dest_set.hpp"
#include "common/ids.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace causim::causal {

class KsLog {
 public:
  /// The pruning rules a walk applies on top of MERGE / add() — Opt-Track's
  /// ProtocolOptions toggles, all on in the paper.
  struct Rules {
    /// Conditions (1)+(2) at an SM's receiver: the piggybacked entries shed
    /// dests(m) (decode_applied only).
    bool prune_on_apply = true;
    /// prune_by_program_order().
    bool program_order = true;
    /// purge().
    bool purge = true;
  };

  /// An SM at its receiver (see scan_witnesses, decode_applied).
  struct Receipt {
    WriteId write;         // the SM's write
    const DestSet& dests;  // dests(m), the receiver included
    SiteId self;           // the receiver
  };

  KsLog() = default;
  explicit KsLog(SiteId n) : n_(n) {}

  SiteId universe_size() const { return n_; }
  std::size_t size() const { return entries_.size(); }
  /// Entries the log's buffer has room for.
  std::size_t capacity() const { return entries_.capacity(); }
  bool empty() const { return entries_.empty(); }

  bool contains(const WriteId& id) const { return find(id) != nullptr; }
  const DestSet* find(const WriteId& id) const;

  /// Adds an entry, maintaining the KS implicit-tracking invariant:
  ///   * write already present  → dest lists are intersected (each side's
  ///     absence of a destination is knowledge the constraint is redundant);
  ///   * write absent but a newer entry of the same writer is present → the
  ///     incoming entry is *obsolete* and is discarded. Entries only ever
  ///     leave a log once their whole dest list became redundant (and a
  ///     newer same-writer entry exists — see purge()), and they travel
  ///     alongside newer entries on every causal path, so "absent while a
  ///     newer entry is present" certifies the information is stale.
  ///     Without this rule, old snapshots (e.g. LastWriteOn logs of rarely
  ///     written variables) keep resurrecting long-dead entries and the log
  ///     grows with the read rate instead of staying amortized O(n).
  void add(const WriteId& id, const DestSet& dests);

  /// MERGE of §V-A-2: folds every entry of `other` into this log with the
  /// same rules as add().
  void merge(const KsLog& other);

  /// MERGE followed by the cleanup a site runs on its own log after it:
  /// prune_applied(self, applied) on each entry as the merge walk emits
  /// it, then prune_by_program_order() and purge() as `rules` say, in one
  /// backward pass. Returns the merged size, before purge dropped any
  /// entry.
  std::size_t merge_and_clean(const KsLog& other, SiteId self,
                              const std::vector<WriteClock>& applied, Rules rules);

  /// Implicit condition (2): a message was just sent to every site in `d`,
  /// so remove `d` from every entry's dest list.
  void prune_dests(const DestSet& d);

  /// Implicit condition (1) helper: site `s` applied (or is known to have
  /// applied) every write up to `clock` by `writer`; removes `s` from the
  /// dest lists of the matching entries.
  void erase_dest_up_to(SiteId s, SiteId writer, WriteClock clock);

  /// Removes `s` from every entry's dest list (used when the merging site
  /// knows all these writes were applied at s — e.g. s is itself).
  void erase_dest_everywhere(SiteId s);

  /// Implicit condition (1) against local apply knowledge: removes `s` from
  /// every entry ⟨j, c, D⟩ with c <= applied[j] (those writes are known to
  /// have been applied at s).
  void prune_applied(SiteId s, const std::vector<WriteClock>& applied);

  /// PURGE of §V-A-2: drops every empty-dest entry that is not the most
  /// recent entry of its writer.
  void purge();

  /// Implicit condition (2) through program order: for two writes of the
  /// same writer with c < c', send(⟨j,c⟩) →co send(⟨j,c'⟩), so every
  /// destination of the newer entry is redundant in the older entry's dest
  /// list (any site holding both entries is in the causal future of the
  /// newer send). Prunes each entry by the union of all newer same-writer
  /// dest lists. This is the rule that keeps the log amortized O(n).
  void prune_by_program_order();

  /// Highest clock present for `writer`, 0 if none.
  WriteClock max_clock_of(SiteId writer) const;

  /// The KS activation predicate's witness: the first entry, in (writer,
  /// clock) order, that still names `site` as a destination of a write
  /// `applied` has not reached (applied[writer] < clock). nullptr means
  /// every write this log orders before `site`'s next apply is applied.
  const WriteId* first_unapplied(SiteId site,
                                 const std::vector<WriteClock>& applied) const;

  /// The entries whose dest lists still name `site`, as a log of their own.
  KsLog naming(SiteId site) const;

  /// Iterates entries in (writer, clock) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.id, e.dests);
  }

  bool operator==(const KsLog& other) const {
    return n_ == other.n_ && entries_ == other.entries_;
  }

  void clear() { entries_.clear(); }

  void serialize(serial::ByteWriter& w) const;
  /// Decodes a serialized log in wire order. Besides the reader's own
  /// errors, an entry whose universe differs from the log's, whose writer
  /// lies outside it, or whose id does not follow its predecessor's in
  /// (writer, clock) order is malformed: the reader latches !ok() and the
  /// entries decoded so far are returned.
  static KsLog deserialize(serial::ByteReader& r);

  /// The receiver's side of an SM at receipt: one pass over its
  /// piggybacked log that builds no entry. Malformed bytes are rejected
  /// exactly as decode_applied() rejects them (the reader latches !ok());
  /// otherwise the reader moves past the log and each entry that names
  /// `m.self` for a write `applied` has not reached is appended to
  /// `waits_on`, in (writer, clock) order. Those are all the activation
  /// predicate reads of the piggyback, and this is their only producer.
  static void scan_witnesses(serial::ByteReader& r, const Receipt& m,
                             const std::vector<WriteClock>& applied,
                             std::vector<WriteId>& waits_on);

  /// The dependency log an SM's write leaves at its receiver, in one pass
  /// over the piggybacked log: the piggyback, pruned by dests(m)
  /// (rules.prune_on_apply), plus the write's own entry with dests(m) ∖
  /// {self} under add()'s rules, then prune_by_program_order() and purge()
  /// as `rules` say in one backward pass over the just-decoded entries.
  /// The result depends on the bytes, `m` and `rules` alone, so Opt-Track
  /// keeps an applied SM's bytes and runs this only when the log is first
  /// used. Malformed bytes are rejected as deserialize() rejects them, and
  /// so is a log whose universe is not dests(m)'s. The result is built in
  /// `storage`'s buffer (its entries are dropped), so a caller can recycle
  /// a spent log's capacity.
  static KsLog decode_applied(serial::ByteReader& r, const Receipt& m, Rules rules,
                              KsLog storage);

  /// Exact serialized size: count (u16) + per entry WriteId + dest list.
  std::size_t wire_bytes(serial::ClockWidth cw) const;

 private:
  struct Entry {
    WriteId id;
    DestSet dests;
    bool operator==(const Entry&) const = default;
  };
  static_assert(sizeof(Entry) <= 32, "a log entry is a WriteId plus an inline DestSet");
  /// Program order and purge, as `rules` says, in one backward walk that
  /// compacts the log at most once.
  void clean(const Rules& rules);
  template <typename Fix>
  std::size_t merge_walk(const KsLog& other, Fix fix, const Rules& rules);

  SiteId n_ = 0;
  std::vector<Entry> entries_;  // sorted by id, ids unique
};

}  // namespace causim::causal
