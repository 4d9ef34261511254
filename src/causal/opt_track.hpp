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
// An SM's receipt is one scan of its piggyback that builds no log
// (KsLog::scan_witnesses): it validates the bytes and keeps the writes the
// activation predicate waits on. Apply installs the bytes, with the write
// and dests(m), as LastWriteOn⟨x⟩; most such logs are replaced before
// anything reads them. The first use of one — a local read, an FM serve,
// a live-sampler tick or last_write_log() — decodes it with apply's
// pruning (KsLog::decode_applied) and caches the log in place of the
// bytes. A read merges with prune_applied in the walk
// (KsLog::merge_and_clean).
#pragma once

#include <unordered_map>
#include <utility>
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
  /// Sizes every LastWriteOn log as decoded, so a live-sampler tick is the
  /// first use of each slot still in bytes form: a sampled run decodes
  /// every installed log, and does not measure the lazy path.
  std::size_t local_meta_bytes() const override;

  // White-box accessors for tests.
  const KsLog& log() const { return log_; }
  WriteClock applied_clock(SiteId writer) const { return apply_[writer]; }
  const KsLog* last_write_log(VarId var) const;
  /// The buffers LastWriteOn⟨var⟩ holds, without decoding it: room for log
  /// entries, and for piggyback bytes not yet decoded. A slot holds one
  /// form, so one of the two is 0.
  std::pair<std::size_t, std::size_t> last_write_buffers(VarId var) const;

 private:
  struct Pending final : PendingUpdate {
    using PendingUpdate::PendingUpdate;
    /// The piggybacked log's bytes, validated at receipt; apply() installs
    /// them as LastWriteOn⟨var⟩.
    serial::Bytes deps;
    /// The piggybacked writes destined here that were not applied here at
    /// receipt, in (writer, clock) order — all the activation predicate
    /// reads (Apply only grows, so the rest stay applied).
    std::vector<WriteId> waits_on;
  };

  /// LastWriteOn⟨x⟩ in one of two forms: the bytes an SM's apply installed
  /// (with the write and dests(m) that decode them), or the log — a local
  /// write's copy of log_, or the bytes decoded on first use. `bytes` is
  /// empty exactly when the log is the form held, and a slot in the bytes
  /// form holds no log buffer.
  struct LastWrite {
    // Decoding the bytes in place changes no value the protocol reports,
    // so const members do it. Every Protocol call runs under its site's
    // lock (the live sampler's too), so they never race.
    mutable KsLog log;
    mutable serial::Bytes bytes;
    WriteId write;
    DestSet dests;
  };

  KsLog::Rules rules() const {
    return {options_.prune_on_apply, options_.prune_program_order, options_.purge_markers};
  }
  /// The activation predicate's witness: the first write `p` waits on
  /// that is still not applied here, or nullptr.
  const WriteId* first_waiting(const Pending& p) const;
  /// A read's →co edge: merges `incoming` into the local log and cleans it.
  void merge_read(const KsLog& incoming);
  /// The slot's log, decoded from its bytes if this is its first use.
  const KsLog& materialize(const LastWrite& slot) const;

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
  std::unordered_map<VarId, LastWrite> last_write_on_;
  // Spent LastWriteOn buffers: the next receipt copies its piggyback into
  // spare_bytes_, the next first use decodes into spare_log_.
  mutable serial::Bytes spare_bytes_;
  mutable KsLog spare_log_;
};

}  // namespace causim::causal
