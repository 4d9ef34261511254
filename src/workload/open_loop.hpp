// OpenLoopGen — service-style open-loop workloads for the KV front-end.
//
// The paper's schedule (schedule.hpp) is closed-loop: every site thinks
// for a uniform 5–2005 ms gap between operations, so the offered load
// adapts to how slow the system is. A service does the opposite — clients
// arrive whether or not the store keeps up. This generator emits a
// workload::Schedule whose per-site issue times follow a Poisson process
// at a target rate (exponential inter-arrival gaps), whose operations
// target keys drawn from a Zipfian popularity ranking over a keyspace far
// larger than the variable count, and which optionally shifts the hot set
// mid-run (a flash crowd). Because the output is an ordinary Schedule,
// every execution substrate (DES, the thread pool at any width,
// topology/gateway stacks) runs it unchanged; the parallel per-op key and
// session assignments let the KV layer route each slot through a client
// session. The closed schedule path is untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "workload/schedule.hpp"

namespace causim::workload {

struct OpenLoopParams {
  /// Keyspace size: keys are 0 … keys-1 before popularity permutation.
  /// Orders of magnitude larger than the variable count — the KV layer
  /// folds keys onto variables.
  std::uint64_t keys = 1'000'000;
  /// Zipf skew of key popularity (0 = uniform). Rank 0 is the hottest key.
  double zipf_s = 0.99;
  double write_rate = 0.5;
  /// Poisson arrival rate per site, operations per simulated second.
  double rate_ops_per_sec = 10.0;
  std::size_t ops_per_site = 600;
  /// Client sessions multiplexed onto each site; each op is assigned one
  /// uniformly.
  std::uint32_t sessions_per_site = 4;
  std::uint32_t payload_lo = 0;
  std::uint32_t payload_hi = 0;
  /// Same floor semantics as WorkloadParams::warmup_fraction.
  double warmup_fraction = 0.15;
  /// Flash crowd: from op index floor(flash_at * ops_per_site) on, the
  /// popularity ranking rotates by keys/2 — the old hot set goes cold and
  /// a disjoint set of keys takes over, at every site simultaneously.
  bool flash = false;
  double flash_at = 0.5;
  std::uint64_t seed = 1;
};

/// Per-op KV routing, parallel to Schedule::per_site: which key the slot
/// targets and which of the site's sessions issues it.
struct KeyOp {
  std::uint64_t key = 0;
  std::uint32_t session = 0;
};

struct OpenLoopWorkload {
  Schedule schedule;
  std::vector<std::vector<KeyOp>> per_site;  // parallel to schedule.per_site

  std::size_t total_ops() const { return schedule.total_ops(); }
};

/// Generates the open-loop workload. `var_of` maps a key to the variable
/// that backs it (kv::KeyMap::var_of; the generator itself is agnostic to
/// the mapping). Deterministic in `params.seed` — same seed, same bytes.
OpenLoopWorkload generate_open_loop(SiteId sites, const OpenLoopParams& params,
                                    const std::function<VarId(std::uint64_t)>& var_of);

}  // namespace causim::workload
