// Opt-Track-CRP (§III-C) — Opt-Track specialized to full replication.
//
// Under full replication every write is destined to every site, so dest
// lists carry no information and each log entry shrinks to the 2-tuple
// ⟨i, clock_i⟩ (O(1) instead of O(n)). Two further specializations from
// §III-C:
//   * the local log resets to just the new write after every write
//     operation (condition (2) prunes everything else);
//   * LastWriteOn⟨h⟩ stores only the last write applied to x_h — once that
//     write is applied in causal order, its whole causal past is too;
//   * the log keeps at most one entry per writer (reads of values written
//     by the same process supersede each other), so it holds at most
//     d + 1 <= n entries, where d = local reads since the last local write.
#pragma once

#include <map>
#include <unordered_map>

#include "causal/protocol.hpp"

namespace causim::causal {

class OptTrackCrp final : public Protocol {
 public:
  OptTrackCrp(SiteId self, SiteId n, ProtocolOptions options = {});

  ProtocolKind kind() const override { return ProtocolKind::kOptTrackCrp; }
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

  std::size_t log_entry_count() const override { return log_.size(); }
  std::size_t local_meta_bytes() const override;

  // White-box accessors for tests.
  WriteClock applied_clock(SiteId writer) const { return apply_[writer]; }
  const std::map<SiteId, WriteClock>& log() const { return log_; }

 private:
  struct Pending final : PendingUpdate {
    Pending(SmEnvelope e, DestSet d, std::map<SiteId, WriteClock> l)
        : PendingUpdate(e, std::move(d)), piggyback(std::move(l)) {}
    std::map<SiteId, WriteClock> piggyback;
  };

  SiteId self_;
  SiteId n_;
  ProtocolOptions options_;
  WriteClock clock_ = 0;
  /// Full replication: every write by ap_j reaches this site, so "highest
  /// clock applied" and "number applied" coincide.
  std::vector<WriteClock> apply_;
  /// The local log: at most one ⟨writer, clock⟩ per writer.
  std::map<SiteId, WriteClock> log_;
  std::unordered_map<VarId, WriteId> last_write_on_;
};

}  // namespace causim::causal
