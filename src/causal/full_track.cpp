#include "causal/full_track.hpp"

#include "common/panic.hpp"

namespace causim::causal {

FullTrack::FullTrack(SiteId self, SiteId n, ProtocolOptions options)
    : self_(self), n_(n), options_(options), write_(n), apply_(n, 0) {
  CAUSIM_CHECK(self < n, "site id " << self << " out of range for n=" << n);
}

WriteId FullTrack::local_write(VarId var, const Value& v, const DestSet& dests,
                               serial::ByteWriter& meta_out) {
  (void)v;  // values live in the runtime's variable store
  ++clock_;
  // This write is destined to every replica of var: bump the per-destination
  // counters *before* snapshotting the piggybacked matrix, so the matrix
  // accounts for the write itself (the predicate checks W[j][k] == Apply+1).
  dests.for_each([this](SiteId k) { ++write_.at(self_, k); });
  write_.serialize(meta_out);
  if (dests.contains(self_)) {
    // Local apply is immediate: nothing in our causal past can be missing here.
    ++apply_[self_];
    last_write_on_[var] = write_;
  }
  return WriteId{self_, clock_};
}

void FullTrack::local_read(VarId var) {
  // Reading the value creates the →co edge: only now is the writer's matrix
  // merged into ours (merge-at-receipt would track →, not →co, and inflate
  // false causality).
  const auto it = last_write_on_.find(var);
  if (it != last_write_on_.end()) {
    write_.merge(it->second);
    notify_merge(log_entry_count(), log_entry_count(), log_entry_count());
  }
}

std::unique_ptr<PendingUpdate> FullTrack::decode_sm(SmEnvelope env, DestSet dests,
                                                    serial::ByteReader& meta) {
  MatrixClock m = MatrixClock::deserialize(meta);
  CAUSIM_CHECK(m.size() == n_, "SM matrix clock has wrong dimension");
  return std::make_unique<Pending>(env, std::move(dests), std::move(m));
}

bool FullTrack::ready(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  const SiteId j = p.env().sender;
  // Program order from the writer: this must be the next of j's writes
  // destined here. (FIFO delivers them in order, but queued updates may be
  // examined out of order, so the predicate re-checks.)
  if (p.matrix.at(j, self_) != apply_[j] + 1) return false;
  // Every write by any other process destined here that the writer had in
  // its causal past must already be applied here.
  for (SiteId l = 0; l < n_; ++l) {
    if (l == j) continue;
    if (p.matrix.at(l, self_) > apply_[l]) return false;
  }
  return true;
}

BlockingDep FullTrack::blocking_dep(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  const SiteId j = p.env().sender;
  // Mirror ready() clause by clause; the matrix counts writes *destined
  // here*, so the blocker is an apply ordinal at this site, not a writer
  // clock (is_ordinal): we wait for the (apply_[l]+1)-th write by l
  // destined to this site.
  if (p.matrix.at(j, self_) != apply_[j] + 1) {
    return BlockingDep{j, apply_[j] + 1, /*is_ordinal=*/true};
  }
  for (SiteId l = 0; l < n_; ++l) {
    if (l == j) continue;
    if (p.matrix.at(l, self_) > apply_[l]) {
      return BlockingDep{l, apply_[l] + 1, /*is_ordinal=*/true};
    }
  }
  return {};
}

void FullTrack::apply(PendingUpdate& u) {
  const auto& p = static_cast<const Pending&>(u);
  CAUSIM_CHECK(ready(u), "apply called with a false activation predicate");
  ++apply_[p.env().sender];
  last_write_on_[p.env().var] = p.matrix;
}

void FullTrack::remote_return_meta(VarId var, serial::ByteWriter& out) const {
  const auto it = last_write_on_.find(var);
  if (it != last_write_on_.end()) {
    it->second.serialize(out);
  } else {
    MatrixClock(n_).serialize(out);  // variable still ⊥: no dependencies
  }
}

namespace {
struct FullTrackReturn final : PendingReturn {
  explicit FullTrackReturn(MatrixClock m) : matrix(std::move(m)) {}
  MatrixClock matrix;
};
}  // namespace

std::unique_ptr<PendingReturn> FullTrack::decode_remote_return(
    serial::ByteReader& meta) const {
  MatrixClock m = MatrixClock::deserialize(meta);
  CAUSIM_CHECK(m.size() == n_, "RM matrix clock has wrong dimension");
  return std::make_unique<FullTrackReturn>(std::move(m));
}

bool FullTrack::return_ready(const PendingReturn& r) const {
  // The returned value's causal past must not name writes destined here
  // that we have not applied (column `self` of the matrix).
  const auto& ret = static_cast<const FullTrackReturn&>(r);
  for (SiteId l = 0; l < n_; ++l) {
    if (ret.matrix.at(l, self_) > apply_[l]) return false;
  }
  return true;
}

void FullTrack::absorb_remote_return(VarId var, const PendingReturn& r) {
  (void)var;
  CAUSIM_CHECK(return_ready(r), "absorb called before the remote return was ready");
  write_.merge(static_cast<const FullTrackReturn&>(r).matrix);
  notify_merge(log_entry_count(), log_entry_count(), log_entry_count());
}

namespace {
struct FullTrackGuard final : FetchGuard {
  explicit FullTrackGuard(VectorClock c) : column(std::move(c)) {}
  VectorClock column;
};
}  // namespace

void FullTrack::fetch_guard_meta(SiteId responder, serial::ByteWriter& out) const {
  VectorClock column(n_);
  for (SiteId l = 0; l < n_; ++l) column[l] = write_.at(l, responder);
  column.serialize(out);
}

std::unique_ptr<FetchGuard> FullTrack::decode_fetch_guard(serial::ByteReader& meta) const {
  VectorClock column = VectorClock::deserialize(meta);
  CAUSIM_CHECK(column.size() == n_, "fetch guard has wrong dimension");
  return std::make_unique<FullTrackGuard>(std::move(column));
}

bool FullTrack::fetch_ready(const FetchGuard& guard) const {
  const auto& g = static_cast<const FullTrackGuard&>(guard);
  for (SiteId l = 0; l < n_; ++l) {
    if (g.column[l] > apply_[l]) return false;
  }
  return true;
}

std::size_t FullTrack::local_meta_bytes() const {
  std::size_t bytes = MatrixClock::wire_bytes(n_, options_.clock_width);  // Write_i
  bytes += static_cast<std::size_t>(n_) * static_cast<std::size_t>(options_.clock_width);  // Apply_i
  for (const auto& [var, m] : last_write_on_) {
    (void)var;
    bytes += MatrixClock::wire_bytes(n_, options_.clock_width);
  }
  return bytes;
}

}  // namespace causim::causal
