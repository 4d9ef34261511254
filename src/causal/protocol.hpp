// Protocol — the interface every causal-consistency protocol implements.
//
// A Protocol instance is the per-site ordering brain: it owns the
// meta-data structures of §III (Write clocks, KS logs, LastWriteOn maps)
// and decides *when* a received update may be applied (the activation
// predicate A_OPT). It is deliberately passive: the DSM runtime
// (src/dsm/site_runtime.hpp) owns variable storage, replica placement,
// message envelopes and transports, and calls into the protocol from its
// application and message-receipt subsystems. That split lets the same
// protocol code run unchanged under the discrete-event simulator and the
// real-thread transport.
//
// Implemented protocols (§III, all from Shen/Kshemkalyani/Hsu [12] and
// Baldoni et al. [13]):
//   kFullTrack    — partial replication, n×n Write matrix piggybacked.
//   kOptTrack     — partial replication, KS log ⟨j, clock_j, Dests⟩.
//   kOptTrackCrp  — full replication, 2-tuple ⟨i, clock_i⟩ log entries.
//   kOptP         — full replication, O(n) Write vector (baseline).
#pragma once

#include <memory>
#include <string>

#include "causal/observer.hpp"
#include "common/dest_set.hpp"
#include "common/ids.hpp"
#include "common/value.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace causim::causal {

enum class ProtocolKind : std::uint8_t {
  kFullTrack,
  kOptTrack,
  kOptTrackCrp,
  kOptP,
  /// Full-Track tracking → (happened-before) instead of →co: merges
  /// piggybacked clocks at apply time. A deliberately pessimistic baseline
  /// quantifying the false causality the paper's protocols avoid.
  kFullTrackHb,
};

const char* to_string(ProtocolKind k);

/// True for the protocols that require every variable replicated everywhere.
inline bool requires_full_replication(ProtocolKind k) {
  return k == ProtocolKind::kOptTrackCrp || k == ProtocolKind::kOptP;
}

/// Envelope fields of an SM (multicast update) message, decoded by the
/// runtime; `meta` is decoded by the protocol into a PendingUpdate.
struct SmEnvelope {
  SiteId sender = kInvalidSite;
  VarId var = kInvalidVar;
  Value value;
  WriteId write;
};

/// Decoded FM guard meta-data for the causal-fetch extension (see
/// Protocol::fetch_guard_meta). Protocols subclass it.
class FetchGuard {
 public:
  virtual ~FetchGuard() = default;
};

/// Decoded RM meta-data (LastWriteOn⟨var⟩), held by the reader until
/// return_ready() — see Protocol::decode_remote_return.
class PendingReturn {
 public:
  virtual ~PendingReturn() = default;
};

/// A received-but-not-yet-applied update, held by the runtime's message
/// receipt subsystem until the activation predicate turns true. Protocols
/// subclass it with their decoded meta-data.
class PendingUpdate {
 public:
  explicit PendingUpdate(SmEnvelope env, DestSet dests)
      : env_(env), dests_(std::move(dests)) {}
  virtual ~PendingUpdate() = default;

  const SmEnvelope& env() const { return env_; }
  const DestSet& dests() const { return dests_; }

 private:
  SmEnvelope env_;
  DestSet dests_;
};

/// Why an activation predicate is false right now: the identity of one
/// dependency the predicate is waiting on (see Protocol::blocking_dep).
/// `writer` is the site whose write must be applied first. When
/// `is_ordinal` is false, `value` is that writer's clock — the blocker is
/// literally WriteId{writer, value}. When true, `value` is a per-site
/// apply ordinal: the predicate waits for the value-th write by `writer`
/// destined to (and applied at) the blocked site — Full-Track's matrix
/// counts per-destination deliveries, which under partial replication are
/// not writer clocks. A default-constructed BlockingDep (writer ==
/// kInvalidSite) means "not blocked" / "not reported".
struct BlockingDep {
  SiteId writer = kInvalidSite;
  WriteClock value = 0;
  bool is_ordinal = false;

  bool valid() const { return writer != kInvalidSite; }
  friend bool operator==(const BlockingDep&, const BlockingDep&) = default;
};

/// Tunables shared by all protocols; Opt-Track additionally honours the
/// pruning toggles (used by the ablation bench — all on by default, as in
/// the paper).
struct ProtocolOptions {
  serial::ClockWidth clock_width = serial::ClockWidth::k4Bytes;
  /// Implicit condition (2): on a write to dest set D, prune D from every
  /// local log entry's dest list.
  bool prune_on_send = true;
  /// Implicit condition (1)+(2) at the receiver: on apply of m, prune
  /// dests(m) from every piggybacked entry before storing LastWriteOn.
  bool prune_on_apply = true;
  /// Keep at most one empty-dest marker entry per writer (drop superseded
  /// ones). Turning this off leaves every empty entry in the log.
  bool purge_markers = true;
  /// Implicit condition (2) through each writer's program order: newer
  /// same-writer entries prune older ones at merge/apply time. This is the
  /// rule that keeps the Opt-Track log amortized O(n); without it the log
  /// grows with the read rate.
  bool prune_program_order = true;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual ProtocolKind kind() const = 0;
  virtual SiteId self() const = 0;
  virtual SiteId sites() const = 0;

  // ---- application subsystem hooks ----

  /// Performs the protocol bookkeeping for a local write of `v` to `var`,
  /// whose replica set is `dests` (self included iff locally replicated;
  /// the protocol handles its own local-apply bookkeeping in that case).
  /// Serializes the SM meta-data to piggyback into `meta_out` and returns
  /// the new write's global id.
  virtual WriteId local_write(VarId var, const Value& v, const DestSet& dests,
                              serial::ByteWriter& meta_out) = 0;

  /// A read of a locally replicated variable: merges the meta-data
  /// associated with the variable's current value (LastWriteOn⟨h⟩) into the
  /// local structures — this is where →co dependencies are created.
  virtual void local_read(VarId var) = 0;

  // ---- message receipt subsystem hooks ----

  /// Decodes a received SM's piggybacked meta-data.
  virtual std::unique_ptr<PendingUpdate> decode_sm(SmEnvelope env, DestSet dests,
                                                   serial::ByteReader& meta) = 0;

  /// The activation predicate A(m, e): true once `u` may be applied locally
  /// without violating causal order. Must be monotone (once true, stays
  /// true).
  virtual bool ready(const PendingUpdate& u) const = 0;

  /// Explains a false activation predicate: the identity of the dependency
  /// currently blocking `u` (the first failing clause of ready(), so
  /// deterministic for a given protocol state). Must return an invalid
  /// BlockingDep when ready(u) is true. Called only when the runtime has a
  /// trace sink attached — provenance is free when tracing is off. The
  /// reported blocker must be *progress-tight*: once the named write is
  /// applied, re-querying yields a different blocker or ready() turns true.
  virtual BlockingDep blocking_dep(const PendingUpdate& u) const {
    (void)u;
    return {};
  }

  /// Applies `u`'s ordering effects (Apply counters, LastWriteOn). The
  /// runtime writes the value into the variable store. Consumes `u`'s
  /// decoded meta-data: the runtime applies an update once, then drops it.
  virtual void apply(PendingUpdate& u) = 0;

  /// Serializes LastWriteOn⟨var⟩ for an RM (remote return) message.
  virtual void remote_return_meta(VarId var, serial::ByteWriter& out) const = 0;

  /// Decodes a received RM's meta-data for deferred absorption.
  virtual std::unique_ptr<PendingReturn> decode_remote_return(
      serial::ByteReader& meta) const = 0;

  /// True once every write named by the returned meta-data as destined to
  /// this site has been applied here. Completing a remote read earlier
  /// would let the site's causal past outrun its replica state: its next
  /// local write would be applied locally ahead of causal predecessors
  /// still in flight — a causal-order violation (found by the checker;
  /// see DESIGN.md §3). Must be monotone, like ready().
  virtual bool return_ready(const PendingReturn& r) const = 0;

  /// Reader-side absorption of a ready remote return for `var`: merges the
  /// meta-data into the local structures (the remote read's →co edge).
  virtual void absorb_remote_return(VarId var, const PendingReturn& r) = 0;

  // ---- causal-fetch extension (opt-in; see dsm::ClusterConfig) ----
  //
  // The paper's RemoteFetch (Table I: FM = ⟨x_h⟩ only) returns whatever the
  // predesignated replica currently holds, which can be causally *older*
  // than writes already in the reader's own past — the replica may have
  // received but not yet applied them. With the extension on, the FM
  // piggybacks a guard summarizing the reader's causal past restricted to
  // the responder, and the responder delays the reply until fetch_ready().
  // The default implementations are no-ops (full-replication protocols
  // never fetch; reads there are always fresh).

  /// Serializes the reader-side guard for a fetch served by `responder`.
  virtual void fetch_guard_meta(SiteId responder, serial::ByteWriter& out) const {
    (void)responder;
    (void)out;
  }

  /// Decodes a received guard (nullptr = no guard / always ready).
  virtual std::unique_ptr<FetchGuard> decode_fetch_guard(serial::ByteReader& meta) const {
    (void)meta;
    return nullptr;
  }

  /// True once every write the guard names as destined here is applied.
  /// Must be monotone, like ready().
  virtual bool fetch_ready(const FetchGuard& guard) const {
    (void)guard;
    return true;
  }

  // ---- instrumentation ----

  /// Number of entries in the local causal log (d in the paper's
  /// Opt-Track-CRP analysis; n² for Full-Track's matrix).
  virtual std::size_t log_entry_count() const = 0;

  /// Exact wire size the local causal log would serialize to right now —
  /// the per-site meta-data storage the paper discusses in §III.
  virtual std::size_t local_meta_bytes() const = 0;

  /// Registers an observer for log merge/prune events (nullptr detaches).
  /// The observer must outlive the protocol or be detached first.
  void set_observer(ProtocolObserver* observer) { observer_ = observer; }

 protected:
  void notify_merge(std::size_t before, std::size_t incoming, std::size_t after) {
    if (observer_ != nullptr) observer_->on_log_merge(before, incoming, after);
  }
  void notify_prune(std::size_t before, std::size_t after) {
    if (observer_ != nullptr) observer_->on_log_prune(before, after);
  }
  bool observed() const { return observer_ != nullptr; }

 private:
  ProtocolObserver* observer_ = nullptr;
};

}  // namespace causim::causal
