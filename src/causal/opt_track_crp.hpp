// Opt-Track-CRP (§III-C) — Opt-Track specialized to full replication.
//
// Under full replication every write is destined to every site, so dest
// lists carry no information and each log entry shrinks to the 2-tuple
// ⟨i, clock_i⟩ (O(1) instead of O(n)). Two further specializations from
// §III-C:
//   * the local log resets to just the new write after every write
//     operation (condition (2) prunes everything else);
//   * LastWriteOn⟨h⟩ stores only the last write applied to x_h — once that
//     write is applied in causal order, its whole causal past is too;
//   * the log keeps at most one entry per writer (reads of values written
//     by the same process supersede each other), so it holds at most
//     d + 1 <= n entries, where d = local reads since the last local write.
//
// Every structure is flat. The log and each SM's decoded piggyback are
// site-sorted (site, clock) vectors, and LastWriteOn is a VarId-indexed
// vector grown on the first write to a variable (nothing is sized at
// construction). The piggyback decoder is strict: a site id >= n, or one
// not strictly above the previous entry's, fails the reader, so a
// malformed SM trips the runtime's "corrupt SM meta-data" check instead of
// indexing Apply out of range. The encoder only writes strictly
// increasing sites, so well-formed bytes are unaffected.
#pragma once

#include <utility>
#include <vector>

#include "causal/protocol.hpp"

namespace causim::causal {

class OptTrackCrp final : public Protocol {
 public:
  OptTrackCrp(SiteId self, SiteId n, ProtocolOptions options = {});

  ProtocolKind kind() const override { return ProtocolKind::kOptTrackCrp; }
  SiteId self() const override { return self_; }
  SiteId sites() const override { return n_; }

  WriteId local_write(VarId var, const Value& v, const DestSet& dests,
                      serial::ByteWriter& meta_out) override;
  void local_read(VarId var) override;

  std::unique_ptr<PendingUpdate> decode_sm(SmEnvelope env, DestSet dests,
                                           serial::ByteReader& meta) override;
  bool ready(const PendingUpdate& u) const override;
  BlockingDep blocking_dep(const PendingUpdate& u) const override;
  void apply(PendingUpdate& u) override;

  void remote_return_meta(VarId var, serial::ByteWriter& out) const override;
  std::unique_ptr<PendingReturn> decode_remote_return(
      serial::ByteReader& meta) const override;
  bool return_ready(const PendingReturn& r) const override;
  void absorb_remote_return(VarId var, const PendingReturn& r) override;

  std::size_t log_entry_count() const override { return log_.size(); }
  std::size_t local_meta_bytes() const override;

  /// One ⟨writer, clock⟩ 2-tuple; logs keep them sorted by writer.
  using LogEntry = std::pair<SiteId, WriteClock>;
  using Log = std::vector<LogEntry>;

  // White-box accessors for tests.
  WriteClock applied_clock(SiteId writer) const { return apply_[writer]; }
  const Log& log() const { return log_; }

 private:
  struct Pending final : PendingUpdate {
    using PendingUpdate::PendingUpdate;
    Log piggyback;
  };

  /// LastWriteOn⟨var⟩ := w, growing the table on a variable's first write.
  void set_last_write(VarId var, WriteId w);

  SiteId self_;
  SiteId n_;
  ProtocolOptions options_;
  WriteClock clock_ = 0;
  /// Full replication: every write by ap_j reaches this site, so "highest
  /// clock applied" and "number applied" coincide.
  std::vector<WriteClock> apply_;
  /// The local log: at most one ⟨writer, clock⟩ per writer, site-sorted.
  Log log_;
  /// LastWriteOn⟨x⟩ at index x; a null WriteId (and any x past the end)
  /// means the variable is still ⊥.
  std::vector<WriteId> last_write_on_;
  std::size_t last_write_count_ = 0;  // non-null LastWriteOn slots
};

}  // namespace causim::causal
