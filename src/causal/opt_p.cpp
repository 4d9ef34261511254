#include "causal/opt_p.hpp"

#include "common/panic.hpp"

namespace causim::causal {

OptP::OptP(SiteId self, SiteId n, ProtocolOptions options)
    : self_(self), n_(n), options_(options), write_(n), apply_(n, 0) {
  CAUSIM_CHECK(self < n, "site id " << self << " out of range for n=" << n);
}

WriteId OptP::local_write(VarId var, const Value& v, const DestSet& dests,
                          serial::ByteWriter& meta_out) {
  (void)v;
  CAUSIM_CHECK(dests.count() == n_, "optP requires full replication");
  ++write_[self_];
  const WriteId w{self_, write_[self_]};
  write_.serialize(meta_out);
  // Local apply is immediate.
  apply_[self_] = write_[self_];
  last_write_on_[var] = write_;
  return w;
}

void OptP::local_read(VarId var) {
  const auto it = last_write_on_.find(var);
  if (it != last_write_on_.end()) {
    write_.merge(it->second);
    notify_merge(n_, n_, n_);
  }
}

std::unique_ptr<PendingUpdate> OptP::decode_sm(SmEnvelope env, DestSet dests,
                                               serial::ByteReader& meta) {
  VectorClock v = VectorClock::deserialize(meta);
  CAUSIM_CHECK(v.size() == n_, "SM vector clock has wrong dimension");
  return std::make_unique<Pending>(env, std::move(dests), std::move(v));
}

bool OptP::ready(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  const SiteId j = p.env().sender;
  if (p.vector[j] != apply_[j] + 1) return false;
  for (SiteId l = 0; l < n_; ++l) {
    if (l != j && p.vector[l] > apply_[l]) return false;
  }
  return true;
}

BlockingDep OptP::blocking_dep(const PendingUpdate& u) const {
  const auto& p = static_cast<const Pending&>(u);
  const SiteId j = p.env().sender;
  // Under full replication every write reaches every site, so apply_[l] is
  // l's writer clock and the next write needed from l is a real WriteId
  // {l, apply_[l] + 1} (is_ordinal stays false).
  if (p.vector[j] != apply_[j] + 1) return BlockingDep{j, apply_[j] + 1};
  for (SiteId l = 0; l < n_; ++l) {
    if (l != j && p.vector[l] > apply_[l]) return BlockingDep{l, apply_[l] + 1};
  }
  return {};
}

void OptP::apply(PendingUpdate& u) {
  const auto& p = static_cast<const Pending&>(u);
  CAUSIM_CHECK(ready(u), "apply called with a false activation predicate");
  ++apply_[p.env().sender];
  last_write_on_[p.env().var] = p.vector;
}

void OptP::remote_return_meta(VarId, serial::ByteWriter&) const {
  CAUSIM_UNREACHABLE("optP is fully replicated; reads never leave the site");
}

std::unique_ptr<PendingReturn> OptP::decode_remote_return(serial::ByteReader&) const {
  CAUSIM_UNREACHABLE("optP is fully replicated; reads never leave the site");
}

bool OptP::return_ready(const PendingReturn&) const {
  CAUSIM_UNREACHABLE("optP is fully replicated; reads never leave the site");
}

void OptP::absorb_remote_return(VarId, const PendingReturn&) {
  CAUSIM_UNREACHABLE("optP is fully replicated; reads never leave the site");
}

std::size_t OptP::local_meta_bytes() const {
  const auto cw = static_cast<std::size_t>(options_.clock_width);
  std::size_t bytes = VectorClock::wire_bytes(n_, options_.clock_width);  // Write_i
  bytes += static_cast<std::size_t>(n_) * cw;                             // Apply_i
  for (const auto& [var, v] : last_write_on_) {
    (void)var;
    bytes += VectorClock::wire_bytes(n_, options_.clock_width);
  }
  return bytes;
}

}  // namespace causim::causal
