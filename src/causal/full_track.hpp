// Full-Track (§III-A) — causal memory for partially replicated DSM with an
// n×n Write matrix clock.
//
// Write_i[j][k] counts the writes by ap_j destined to site s_k in the local
// causal past under →co. The matrix is piggybacked on every SM and RM; it
// is merged into the local matrix only when a read observes the value (the
// →co rule), never at message receipt. The activation predicate compares
// the piggybacked column for this site against the per-writer apply
// counters.
#pragma once

#include <unordered_map>
#include <vector>

#include "causal/clocks.hpp"
#include "causal/protocol.hpp"

namespace causim::causal {

class FullTrack : public Protocol {
 public:
  FullTrack(SiteId self, SiteId n, ProtocolOptions options = {});

  ProtocolKind kind() const override { return ProtocolKind::kFullTrack; }
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

  // Causal-fetch guard: the reader's Write column for the responder — the
  // per-writer counts of writes destined there that are in the reader's
  // causal past. The responder is fresh once it applied that many.
  void fetch_guard_meta(SiteId responder, serial::ByteWriter& out) const override;
  std::unique_ptr<FetchGuard> decode_fetch_guard(serial::ByteReader& meta) const override;
  bool fetch_ready(const FetchGuard& guard) const override;

  std::size_t log_entry_count() const override {
    return static_cast<std::size_t>(n_) * n_;
  }
  std::size_t local_meta_bytes() const override;

  // White-box accessors for tests.
  const MatrixClock& write_clock() const { return write_; }
  WriteClock applied_count(SiteId writer) const { return apply_[writer]; }

 protected:
  struct Pending final : PendingUpdate {
    Pending(SmEnvelope e, DestSet d, MatrixClock m)
        : PendingUpdate(e, std::move(d)), matrix(std::move(m)) {}
    MatrixClock matrix;
  };

  SiteId self_;
  SiteId n_;
  ProtocolOptions options_;
  WriteClock clock_ = 0;  // local write counter (defines WriteId.clock)
  MatrixClock write_;
  /// apply_[j] = number of writes by ap_j applied at this site. All of
  /// ap_j's writes destined here arrive FIFO, so this equals the largest
  /// per-destination count W[j][self] applied so far.
  std::vector<WriteClock> apply_;
  std::unordered_map<VarId, MatrixClock> last_write_on_;
};

}  // namespace causim::causal
