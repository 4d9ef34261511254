// FaultPlan — a declarative, seed-independent description of how a run's
// channels misbehave (causim::faults).
//
// A plan says nothing about *which* packets are hit — that is decided by
// the FaultInjector's own seeded RNG — only about rates and windows, so
// the same plan replayed with the same seed reproduces the exact fault
// sequence, and sweeping seeds under one plan samples the fault space.
//
// Faults compose per directed channel (from, to):
//   * drop_rate        — probability a packet is silently discarded,
//   * dup_rate         — probability a packet is delivered twice,
//   * extra_delay_max  — uniform extra latency in [0, max] added on top of
//                        the transport's own model,
// plus scripted pause windows: while a site is "paused" every packet it
// sends or should receive is dropped, modeling a transient partition or a
// stalled process (§II-B's failure-free assumption, deliberately broken).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace causim::faults {

struct ChannelFaults {
  /// Probability in [0, 1] that a packet on this channel is dropped.
  double drop_rate = 0.0;
  /// Probability in [0, 1] that a packet is duplicated (both copies still
  /// subject to extra delay, independently).
  double dup_rate = 0.0;
  /// Upper bound (µs) of uniform extra delay injected before forwarding;
  /// 0 disables. Extra delay breaks the inner transport's FIFO guarantee —
  /// that is the point.
  SimTime extra_delay_max = 0;

  bool any() const { return drop_rate > 0.0 || dup_rate > 0.0 || extra_delay_max > 0; }
};

/// While `site` is paused, every packet from or to it is dropped.
struct PauseWindow {
  SiteId site = kInvalidSite;
  SimTime from_us = 0;
  SimTime to_us = 0;
};

struct FaultPlan {
  /// Faults applied to every channel without a specific override.
  ChannelFaults default_faults;
  /// Per-channel overrides, keyed by directed (from, to).
  std::map<std::pair<SiteId, SiteId>, ChannelFaults> channel_overrides;
  std::vector<PauseWindow> pauses;

  /// True when a packet touching `site` at time `at` falls in a pause window.
  bool paused(SiteId site, SimTime at) const {
    for (const PauseWindow& w : pauses) {
      if (w.site == site && at >= w.from_us && at < w.to_us) return true;
    }
    return false;
  }

  /// False for the all-defaults plan: the injector becomes a pure
  /// pass-through and a run with it wired in is byte-identical to one
  /// without (asserted by tests/test_faults_conformance.cpp).
  bool any() const {
    if (default_faults.any() || !pauses.empty()) return true;
    for (const auto& [channel, faults] : channel_overrides) {
      if (faults.any()) return true;
    }
    return false;
  }

  /// Convenience: a plan dropping every channel's packets at `rate`.
  static FaultPlan uniform_drop(double rate) {
    FaultPlan plan;
    plan.default_faults.drop_rate = rate;
    return plan;
  }
};

}  // namespace causim::faults
