#include "causal/opt_track.hpp"

#include <utility>

#include "common/panic.hpp"

namespace causim::causal {

OptTrack::OptTrack(SiteId self, SiteId n, ProtocolOptions options)
    : self_(self), n_(n), options_(options), apply_(n, 0), log_(n) {
  CAUSIM_CHECK(self < n, "site id " << self << " out of range for n=" << n);
}

WriteId OptTrack::local_write(VarId var, const Value& v, const DestSet& dests,
                              serial::ByteWriter& meta_out) {
  (void)v;
  ++clock_;
  const WriteId w{self_, clock_};
  // Piggyback the log as it stands *before* pruning: the copy must still
  // carry "e is destined to d" for d in dests — the receivers enforce those
  // constraints; pruning first would discard exactly what they need.
  log_.serialize(meta_out);
  // Implicit condition (2): a message to every d in dests now exists in the
  // causal future of every logged write, so their dest lists shed dests.
  const std::size_t pre_prune = log_.size();
  if (options_.prune_on_send) log_.prune_dests(dests);
  // The new write enters the log; we are not a "remaining destination" of
  // our own write (condition (1): it is applied here immediately, below).
  DestSet remaining = dests;
  remaining.erase(self_);
  log_.add(w, remaining);
  if (options_.purge_markers) log_.purge();
  if (log_.size() < pre_prune + 1) notify_prune(pre_prune, log_.size() - 1);
  if (dests.contains(self_)) {
    apply_[self_] = clock_;
    // The dependency log of this write's value is the post-prune log plus
    // the write's own entry — i.e. exactly the current log.
    LastWrite& slot = last_write_on_[var];
    if (!slot.bytes.empty()) spare_bytes_ = std::exchange(slot.bytes, {});
    slot.log = log_;
  }
  return w;
}

void OptTrack::local_read(VarId var) {
  const auto it = last_write_on_.find(var);
  if (it == last_write_on_.end()) return;  // variable still ⊥
  merge_read(materialize(it->second));
}

std::unique_ptr<PendingUpdate> OptTrack::decode_sm(SmEnvelope env, DestSet dests,
                                                   serial::ByteReader& meta) {
  CAUSIM_CHECK(dests.universe_size() == n_, "SM destination set has wrong universe");
  // The bytes are decoded later at this protocol's clock width.
  CAUSIM_CHECK(meta.clock_width() == options_.clock_width, "SM meta-data clock width mismatch");
  auto p = std::make_unique<Pending>(env, std::move(dests));
  const std::uint8_t* piggyback = meta.cursor();
  KsLog::scan_witnesses(meta, {env.write, p->dests(), self_}, apply_, p->waits_on);
  if (meta.ok()) {
    p->deps = std::exchange(spare_bytes_, {});
    p->deps.assign(piggyback, meta.cursor());
  }
  return p;
}

const WriteId* OptTrack::first_waiting(const Pending& p) const {
  for (const WriteId& id : p.waits_on) {
    if (apply_[id.writer] < id.clock) return &id;
  }
  return nullptr;
}

bool OptTrack::ready(const PendingUpdate& u) const {
  // A_OPT: every write in the sender's causal past that is destined here
  // must already be applied here. The sender's own previous write destined
  // here is always among the piggybacked entries (its entry keeps this site
  // in its dest list until a newer write to this site supersedes it), so
  // per-writer program order needs no separate check.
  return first_waiting(static_cast<const Pending&>(u)) == nullptr;
}

BlockingDep OptTrack::blocking_dep(const PendingUpdate& u) const {
  // The witnesses keep the piggyback's (writer, clock) order, so "first
  // failing entry" is deterministic. The entry names the blocker directly:
  // a write destined here whose clock this site has not applied yet.
  const WriteId* blocker = first_waiting(static_cast<const Pending&>(u));
  if (blocker == nullptr) return BlockingDep{};
  return BlockingDep{blocker->writer, blocker->clock};
}

void OptTrack::apply(PendingUpdate& u) {
  auto& p = static_cast<Pending&>(u);
  CAUSIM_CHECK(ready(u), "apply called with a false activation predicate");
  const WriteId w = p.env().write;
  CAUSIM_CHECK(apply_[w.writer] < w.clock, "per-writer applies out of order");
  apply_[w.writer] = w.clock;
  // The SM's bytes replace whichever form the slot held; that form's
  // buffer is recycled.
  LastWrite& slot = last_write_on_[p.env().var];
  if (slot.bytes.empty()) {
    spare_log_ = std::exchange(slot.log, KsLog());
  } else {
    spare_bytes_ = std::move(slot.bytes);
  }
  slot.bytes = std::move(p.deps);
  slot.write = w;
  slot.dests = p.dests();
}

const KsLog& OptTrack::materialize(const LastWrite& slot) const {
  if (slot.bytes.empty()) return slot.log;
  serial::ByteReader r(slot.bytes, options_.clock_width);
  // With prune_on_apply, condition (2) at the receiver: the applied message
  // itself now carries the ordering obligation toward each of its
  // destinations, so the piggybacked entries shed dests(m) — which
  // includes this site, giving condition (1) as a special case.
  slot.log = KsLog::decode_applied(r, {slot.write, slot.dests, self_}, rules(),
                                   std::move(spare_log_));
  CAUSIM_CHECK(r.ok() && r.done(), "a LastWriteOn log accepted at receipt failed to decode");
  spare_bytes_ = std::exchange(slot.bytes, {});
  return slot.log;
}

void OptTrack::remote_return_meta(VarId var, serial::ByteWriter& out) const {
  const auto it = last_write_on_.find(var);
  if (it != last_write_on_.end()) {
    materialize(it->second).serialize(out);
  } else {
    KsLog(n_).serialize(out);  // variable still ⊥
  }
}

namespace {
struct OptTrackReturn final : PendingReturn {
  explicit OptTrackReturn(KsLog l) : log(std::move(l)) {}
  KsLog log;
};
}  // namespace

std::unique_ptr<PendingReturn> OptTrack::decode_remote_return(
    serial::ByteReader& meta) const {
  KsLog incoming = KsLog::deserialize(meta);
  CAUSIM_CHECK(incoming.universe_size() == n_, "RM log has wrong universe");
  return std::make_unique<OptTrackReturn>(std::move(incoming));
}

bool OptTrack::return_ready(const PendingReturn& r) const {
  const auto& ret = static_cast<const OptTrackReturn&>(r);
  return ret.log.first_unapplied(self_, apply_) == nullptr;
}

void OptTrack::absorb_remote_return(VarId var, const PendingReturn& r) {
  (void)var;
  CAUSIM_CHECK(return_ready(r), "absorb called before the remote return was ready");
  merge_read(static_cast<const OptTrackReturn&>(r).log);
}

void OptTrack::merge_read(const KsLog& incoming) {
  const std::size_t before = log_.size();
  // Condition (1) against local knowledge: writes we have already applied
  // need no "this site is a destination" records in our own log.
  const std::size_t merged = log_.merge_and_clean(incoming, self_, apply_, rules());
  notify_merge(before, incoming.size(), merged);
  if (log_.size() < merged) notify_prune(merged, log_.size());
}

namespace {
struct OptTrackGuard final : FetchGuard {
  explicit OptTrackGuard(KsLog l) : log(std::move(l)) {}
  KsLog log;
};
}  // namespace

void OptTrack::fetch_guard_meta(SiteId responder, serial::ByteWriter& out) const {
  log_.naming(responder).serialize(out);
}

std::unique_ptr<FetchGuard> OptTrack::decode_fetch_guard(serial::ByteReader& meta) const {
  KsLog guard = KsLog::deserialize(meta);
  CAUSIM_CHECK(guard.universe_size() == n_, "fetch guard has wrong universe");
  return std::make_unique<OptTrackGuard>(std::move(guard));
}

bool OptTrack::fetch_ready(const FetchGuard& guard) const {
  const auto& g = static_cast<const OptTrackGuard&>(guard);
  return g.log.first_unapplied(self_, apply_) == nullptr;
}

const KsLog* OptTrack::last_write_log(VarId var) const {
  const auto it = last_write_on_.find(var);
  return it == last_write_on_.end() ? nullptr : &materialize(it->second);
}

std::pair<std::size_t, std::size_t> OptTrack::last_write_buffers(VarId var) const {
  const auto it = last_write_on_.find(var);
  if (it == last_write_on_.end()) return {0, 0};
  return {it->second.log.capacity(), it->second.bytes.capacity()};
}

std::size_t OptTrack::local_meta_bytes() const {
  std::size_t bytes = log_.wire_bytes(options_.clock_width);
  bytes += static_cast<std::size_t>(n_) * static_cast<std::size_t>(options_.clock_width);
  for (const auto& [var, slot] : last_write_on_) {
    (void)var;
    bytes += materialize(slot).wire_bytes(options_.clock_width);
  }
  return bytes;
}

}  // namespace causim::causal
