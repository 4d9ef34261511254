#include "causal/opt_track_crp.hpp"

#include <algorithm>

#include "common/panic.hpp"

namespace causim::causal {

namespace {

void serialize_log(const OptTrackCrp::Log& log, serial::ByteWriter& w) {
  w.put_u16(static_cast<std::uint16_t>(log.size()));
  for (const auto& [site, clock] : log) {
    w.put_site(site);
    w.put_clock(clock);
  }
}

/// Decodes a piggybacked log into `out`. Sites must be below `n` and
/// strictly increasing (what serialize_log writes); anything else fails
/// the reader, and the caller's ok() check rejects the SM.
void deserialize_log(serial::ByteReader& r, SiteId n, OptTrackCrp::Log& out) {
  const std::uint16_t count = r.get_u16();
  if (count > n) {
    r.fail();  // n strictly increasing sites below n at most
    return;
  }
  out.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const SiteId site = r.get_site();
    const auto clock = static_cast<WriteClock>(r.get_clock());
    if (!r.ok()) return;
    if (site >= n || (!out.empty() && site <= out.back().first)) {
      r.fail();
      return;
    }
    out.emplace_back(site, clock);
  }
}

}  // namespace

OptTrackCrp::OptTrackCrp(SiteId self, SiteId n, ProtocolOptions options)
    : self_(self), n_(n), options_(options), apply_(n, 0) {
  CAUSIM_CHECK(self < n, "site id " << self << " out of range for n=" << n);
}

void OptTrackCrp::set_last_write(VarId var, WriteId w) {
  if (var >= last_write_on_.size()) last_write_on_.resize(static_cast<std::size_t>(var) + 1);
  WriteId& slot = last_write_on_[var];
  if (is_null(slot)) ++last_write_count_;
  slot = w;
}

WriteId OptTrackCrp::local_write(VarId var, const Value& v, const DestSet& dests,
                                 serial::ByteWriter& meta_out) {
  (void)v;
  CAUSIM_CHECK(dests.count() == n_, "Opt-Track-CRP requires full replication");
  ++clock_;
  const WriteId w{self_, clock_};
  // Piggyback the dependency log (the d+1 entries of §III-C), then reset:
  // in full replication condition (2) empties every dest list, and this
  // write becomes the single entry representing the whole causal past.
  serialize_log(log_, meta_out);
  const std::size_t before = log_.size();
  log_.assign(1, LogEntry{self_, clock_});
  if (before > 1) notify_prune(before, log_.size());
  apply_[self_] = clock_;
  set_last_write(var, w);
  return w;
}

void OptTrackCrp::local_read(VarId var) {
  if (var >= last_write_on_.size() || is_null(last_write_on_[var])) return;  // still ⊥
  const WriteId w = last_write_on_[var];
  // One entry per writer: a newer read of the same writer's value
  // supersedes the older entry (§III-C).
  const std::size_t before = log_.size();
  const auto it = std::lower_bound(
      log_.begin(), log_.end(), w.writer,
      [](const LogEntry& e, SiteId site) { return e.first < site; });
  if (it != log_.end() && it->first == w.writer) {
    it->second = std::max(it->second, w.clock);
  } else {
    log_.insert(it, LogEntry{w.writer, w.clock});
  }
  notify_merge(before, 1, log_.size());
}

std::unique_ptr<PendingUpdate> OptTrackCrp::decode_sm(SmEnvelope env, DestSet dests,
                                                      serial::ByteReader& meta) {
  auto pending = std::make_unique<Pending>(env, std::move(dests));
  deserialize_log(meta, n_, pending->piggyback);
  return pending;
}

bool OptTrackCrp::ready(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  // Program order: this must be the writer's next write (every write
  // reaches every site under full replication).
  if (p.env().write.clock != apply_[p.env().write.writer] + 1) return false;
  // Every write the sender causally depends on must be applied here.
  for (const auto& [site, clock] : p.piggyback) {
    if (apply_[site] < clock) return false;
  }
  return true;
}

BlockingDep OptTrackCrp::blocking_dep(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  const SiteId w = p.env().write.writer;
  // Program order first (full replication: apply_[w] is w's writer clock),
  // then the first failing piggybacked dependency — the piggyback is
  // site-sorted, so the choice is deterministic.
  if (p.env().write.clock != apply_[w] + 1) return BlockingDep{w, apply_[w] + 1};
  for (const auto& [site, clock] : p.piggyback) {
    if (apply_[site] < clock) return BlockingDep{site, clock};
  }
  return {};
}

void OptTrackCrp::apply(PendingUpdate& u) {
  const auto& p = static_cast<const Pending&>(u);
  CAUSIM_CHECK(ready(u), "apply called with a false activation predicate");
  const WriteId w = p.env().write;
  apply_[w.writer] = w.clock;
  // Only the write itself is associated with the variable: once it is
  // applied in causal order, so is its entire causal past (§III-C).
  set_last_write(p.env().var, w);
}

void OptTrackCrp::remote_return_meta(VarId, serial::ByteWriter&) const {
  CAUSIM_UNREACHABLE("Opt-Track-CRP is fully replicated; reads never leave the site");
}

std::unique_ptr<PendingReturn> OptTrackCrp::decode_remote_return(
    serial::ByteReader&) const {
  CAUSIM_UNREACHABLE("Opt-Track-CRP is fully replicated; reads never leave the site");
}

bool OptTrackCrp::return_ready(const PendingReturn&) const {
  CAUSIM_UNREACHABLE("Opt-Track-CRP is fully replicated; reads never leave the site");
}

void OptTrackCrp::absorb_remote_return(VarId, const PendingReturn&) {
  CAUSIM_UNREACHABLE("Opt-Track-CRP is fully replicated; reads never leave the site");
}

std::size_t OptTrackCrp::local_meta_bytes() const {
  const auto cw = static_cast<std::size_t>(options_.clock_width);
  std::size_t bytes = 2 + log_.size() * (2 + cw);  // the local log
  bytes += static_cast<std::size_t>(n_) * cw;      // Apply_i
  bytes += last_write_count_ * (2 + cw);           // LastWriteOn 2-tuples
  return bytes;
}

}  // namespace causim::causal
