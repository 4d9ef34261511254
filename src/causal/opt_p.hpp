// optP (Baldoni, Milani, Tucci-Piergiovanni [13]) — the fully replicated
// baseline the paper compares Opt-Track-CRP against.
//
// Each site keeps an O(n) Write vector clock: Write_i[j] counts the writes
// by ap_j in the local causal past under →co. The whole vector is
// piggybacked on every SM, which is what gives optP its O(n²·w) total
// message space (§V-B) versus Opt-Track-CRP's O(n·w·d). Merging into the
// local vector happens at reads (→co), and the activation predicate is the
// optimal A_OPT.
#pragma once

#include <unordered_map>
#include <vector>

#include "causal/clocks.hpp"
#include "causal/protocol.hpp"

namespace causim::causal {

class OptP final : public Protocol {
 public:
  OptP(SiteId self, SiteId n, ProtocolOptions options = {});

  ProtocolKind kind() const override { return ProtocolKind::kOptP; }
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

  std::size_t log_entry_count() const override { return n_; }
  std::size_t local_meta_bytes() const override;

  // White-box accessors for tests.
  const VectorClock& write_clock() const { return write_; }
  WriteClock applied_count(SiteId writer) const { return apply_[writer]; }

 private:
  struct Pending final : PendingUpdate {
    Pending(SmEnvelope e, DestSet d, VectorClock v)
        : PendingUpdate(e, std::move(d)), vector(std::move(v)) {}
    VectorClock vector;
  };

  SiteId self_;
  SiteId n_;
  ProtocolOptions options_;
  VectorClock write_;
  std::vector<WriteClock> apply_;
  std::unordered_map<VarId, VectorClock> last_write_on_;
};

}  // namespace causim::causal
