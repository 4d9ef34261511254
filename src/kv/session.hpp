// Session — a client's causal frontier over the KV store.
//
// A session is sticky: it binds to one home site and issues every
// operation there. The four session guarantees (Terry et al.) then come
// from two mechanisms:
//
//   * monotonic writes + writes-follow-reads ride on the site itself —
//     the causal protocols order every write a site issues after
//     everything the site has locally applied, and a sticky session's
//     writes all go through that site in program order;
//   * read-your-writes + monotonic reads need a client-held cut, because
//     a remote read (the blocking RemoteFetch) is answered by whichever
//     replica the fetch policy picks, and that replica may lag writes the
//     session has already issued or observed.
//
// The session therefore records, per variable it touched, the highest
// write clock it has seen from each writer site (issued puts and observed
// gets alike). A later read of that variable is admissible only if it
// does not regress any same-writer clock and does not return "no write
// yet" after a write was observed. Same-writer comparisons are the sound
// fragment a client can check locally: writes by one site are totally
// ordered by clock and applied in that order at every replica, so a
// regression is always a real staleness, never a false positive on
// concurrent writes.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

namespace causim::kv {

using SessionId = std::uint32_t;

/// Monotonic per-session counters. `stale_observations` counts reads the
/// cut rejected (each triggers a retry when enforcement is on);
/// `violations` counts reads that stayed inadmissible past the retry
/// budget — zero on a live store, the conformance suite asserts it.
struct SessionStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t retries = 0;
  std::uint64_t stale_observations = 0;
  std::uint64_t violations = 0;

  SessionStats& operator+=(const SessionStats& other) {
    puts += other.puts;
    gets += other.gets;
    retries += other.retries;
    stale_observations += other.stale_observations;
    violations += other.violations;
    return *this;
  }
};

class Session {
 public:
  Session(SessionId id, SiteId home) : id_(id), home_(home) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }
  SiteId home() const { return home_; }

  /// Records an issued put (read-your-writes requirement).
  void note_put(VarId var, const WriteId& w);

  /// Records an observed get (monotonic-reads / writes-follow-reads
  /// requirement). Stale observations must NOT be noted — lowering the
  /// cut would let later reads regress legally.
  void note_get(VarId var, const WriteId& w);

  /// True when a read of `var` returning `w` respects the session's cut.
  bool admissible(VarId var, const WriteId& w) const;

  void count_stale();
  void count_retry();
  void count_violation();
  void count_put();
  void count_get();

  SessionStats stats() const;

 private:
  /// Writer -> minimum admissible clock, for one variable. A flat vector:
  /// a session rarely sees more than a handful of writers per variable.
  using Frontier = std::vector<std::pair<SiteId, WriteClock>>;

  void raise_locked(VarId var, const WriteId& w);

  SessionId id_;
  SiteId home_;
  /// Serializes cut updates against admissibility checks: a session's ops
  /// run one at a time (the blocking-op contract), but an op may be issued
  /// on one thread and completed on whichever pool worker delivered the RM.
  mutable std::mutex mutex_;
  std::unordered_map<VarId, Frontier> required_;
  SessionStats stats_;
};

}  // namespace causim::kv
