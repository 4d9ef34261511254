// Opt-Track (§III-B) — message- and space-optimal causal memory for
// partially replicated DSM, adapting the Kshemkalyani–Singhal (KS) causal
// message-ordering algorithm.
//
// Instead of Full-Track's n×n matrix, each site keeps a KsLog of the write
// operations in its causal past whose destination information is still
// necessary, pruned by the two implicit conditions of §III-B:
//   (1) once an update is applied at s, "s is a destination" is redundant
//       in the causal future of that apply;
//   (2) once a later message is multicast to destination set D, "d ∈ D is a
//       destination of an earlier write" is redundant in its causal future
//       (transitivity carries the constraint).
// The log is piggybacked on SM and RM messages and merged into the local
// log only when a read observes the value (→co, not →).
//
// Every message costs one walk over its log plus one clean pass over the
// result: an SM's piggyback is decoded straight into the LastWriteOn log
// its apply installs (with apply's pruning done during the decode), and a
// read merges with prune_applied in the walk (KsLog::decode_applied,
// KsLog::merge_and_clean).
#pragma once

#include <unordered_map>
#include <vector>

#include "causal/ks_log.hpp"
#include "causal/protocol.hpp"

namespace causim::causal {

class OptTrack final : public Protocol {
 public:
  OptTrack(SiteId self, SiteId n, ProtocolOptions options = {});

  ProtocolKind kind() const override { return ProtocolKind::kOptTrack; }
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

  // Causal-fetch guard: the subset of the reader's log whose entries still
  // name the responder as a destination — exactly the writes the responder
  // must apply before its reply can be causally fresh for this reader.
  void fetch_guard_meta(SiteId responder, serial::ByteWriter& out) const override;
  std::unique_ptr<FetchGuard> decode_fetch_guard(serial::ByteReader& meta) const override;
  bool fetch_ready(const FetchGuard& guard) const override;

  std::size_t log_entry_count() const override { return log_.size(); }
  std::size_t local_meta_bytes() const override;

  // White-box accessors for tests.
  const KsLog& log() const { return log_; }
  WriteClock applied_clock(SiteId writer) const { return apply_[writer]; }
  const KsLog* last_write_log(VarId var) const;

 private:
  struct Pending final : PendingUpdate {
    using PendingUpdate::PendingUpdate;
    /// LastWriteOn⟨var⟩ once applied: the piggyback with apply's pruning
    /// already done (KsLog::decode_applied); apply() moves it in.
    KsLog deps;
    /// The piggybacked writes destined here that were not applied here at
    /// decode, in (writer, clock) order — all the activation predicate
    /// reads (Apply only grows, so the rest stay applied).
    std::vector<WriteId> waits_on;
  };

  KsLog::Rules rules() const {
    return {options_.prune_on_apply, options_.prune_program_order, options_.purge_markers};
  }
  /// The activation predicate's witness: the first write `p` waits on
  /// that is still not applied here, or nullptr.
  const WriteId* first_waiting(const Pending& p) const;
  /// A read's →co edge: merges `incoming` into the local log and cleans it.
  void merge_read(const KsLog& incoming);

  SiteId self_;
  SiteId n_;
  ProtocolOptions options_;
  WriteClock clock_ = 0;
  /// apply_[j] = highest write clock of ap_j applied at this site. FIFO
  /// channels + the activation predicate make per-writer applies happen in
  /// increasing clock order, so "⟨j,c⟩ applied here" ⇔ apply_[j] >= c
  /// (DESIGN.md §3 explains why a plain count cannot work under partial
  /// replication).
  std::vector<WriteClock> apply_;
  KsLog log_;
  std::unordered_map<VarId, KsLog> last_write_on_;
  KsLog spare_;  // a replaced LastWriteOn log, whose buffer the next SM decode reuses
};

}  // namespace causim::causal
