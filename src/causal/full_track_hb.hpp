// FullTrackHb — a deliberately pessimistic Full-Track variant that tracks
// Lamport's happened-before relation (→) instead of →co.
//
// It differs from Full-Track in exactly one step: when an update is
// applied, its piggybacked Write matrix is merged into the local matrix
// immediately — as classical causal-broadcast algorithms do on delivery —
// instead of waiting for a read of the written value. Every subsequently
// issued write therefore drags along dependencies on all updates the site
// has merely *received*, not just those its application actually read.
//
// This is the "false causality" the paper's §I credits Full-Track with
// eliminating; the ext_false_causality bench quantifies it as added
// activation delay. The variant is still safe (it enforces a superset of
// the causal order), just needlessly conservative.
#pragma once

#include "causal/full_track.hpp"

namespace causim::causal {

class FullTrackHb final : public FullTrack {
 public:
  FullTrackHb(SiteId self, SiteId n, ProtocolOptions options = {})
      : FullTrack(self, n, options) {}

  ProtocolKind kind() const override { return ProtocolKind::kFullTrackHb; }

  void apply(PendingUpdate& u) override {
    FullTrack::apply(u);
    // The → edge: receipt alone creates the dependency.
    write_.merge(static_cast<const Pending&>(u).matrix);
    notify_merge(log_entry_count(), log_entry_count(), log_entry_count());
  }
};

}  // namespace causim::causal
