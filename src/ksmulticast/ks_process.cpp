#include "ksmulticast/ks_process.hpp"

#include "common/panic.hpp"

namespace causim::ksmulticast {

KsProcess::KsProcess(SiteId self, SiteId n, KsOptions options)
    : self_(self), n_(n), options_(options), delivered_(n, 0), log_(n) {
  CAUSIM_CHECK(self < n, "process id " << self << " out of range for n=" << n);
}

WriteId KsProcess::send(const DestSet& dests, serial::ByteWriter& meta_out) {
  CAUSIM_CHECK(!dests.contains(self_), "multicast destination set must exclude self");
  CAUSIM_CHECK(!dests.empty(), "multicast needs at least one destination");
  ++clock_;
  const WriteId id{self_, clock_};
  // Piggyback before pruning: the copy must carry the constraints the
  // receivers enforce.
  log_.serialize(meta_out);
  // Implicit condition (2): a message to every d ∈ dests now exists in the
  // causal future of every logged send.
  log_.prune_dests(dests);
  log_.add(id, dests);
  log_.purge();
  return id;
}

std::unique_ptr<PendingMessage> KsProcess::decode(SiteId sender, const WriteId& id,
                                                  DestSet dests,
                                                  serial::ByteReader& meta) const {
  causal::KsLog piggyback = causal::KsLog::deserialize(meta);
  CAUSIM_CHECK(piggyback.universe_size() == n_, "piggyback has wrong universe");
  return std::make_unique<PendingMessage>(sender, id, std::move(dests),
                                          std::move(piggyback));
}

bool KsProcess::deliverable(const PendingMessage& m) const {
  return m.piggyback().first_unapplied(self_, delivered_) == nullptr;
}

void KsProcess::deliver(const PendingMessage& m) {
  CAUSIM_CHECK(deliverable(m), "deliver called before the delivery condition held");
  const WriteId id = m.id();
  CAUSIM_CHECK(delivered_[id.writer] < id.clock, "per-sender deliveries out of order");
  delivered_[id.writer] = id.clock;
  ++deliveries_;

  // Delivery creates the causal edge: merge the piggyback now (this is the
  // step Opt-Track defers to the next read of the written value).
  causal::KsLog incoming = m.piggyback();
  // Implicit condition (2) at the receiver: the delivered message carries
  // the obligation toward each of its destinations from here on.
  incoming.prune_dests(m.dests());
  log_.merge(incoming);
  // The message itself enters the log; condition (1): delivered here.
  DestSet remaining = m.dests();
  remaining.erase(self_);
  log_.add(id, remaining);
  // Condition (1) against everything already delivered here.
  log_.prune_applied(self_, delivered_);
  log_.prune_by_program_order();
  log_.purge();
}

}  // namespace causim::ksmulticast
