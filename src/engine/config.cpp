#include "engine/config.hpp"

#include <sstream>

#include "common/panic.hpp"
#include "obs/live/live_telemetry.hpp"

namespace causim::engine {

namespace {

/// Shared by the global reliable_config and every per-scope LinkProfile
/// override — the ARQ invariants are the same wherever the config lives.
void validate_reliable(const net::ReliableConfig& r, const std::string& where,
                       std::vector<std::string>& errors) {
  if (r.rto_initial <= 0) {
    errors.push_back(where + ".rto_initial must be positive (it is the first "
                             "retransmission timeout)");
  }
  if (r.rto_max < r.rto_initial) {
    std::ostringstream os;
    os << where << ".rto_max (" << r.rto_max << "us) is below rto_initial ("
       << r.rto_initial << "us)";
    errors.push_back(os.str());
  }
  if (r.rto_backoff < 1.0) {
    errors.push_back(where + ".rto_backoff must be >= 1.0 (a shrinking RTO "
                             "floods the wire with retransmissions)");
  }
  if (r.adaptive_rto) {
    if (r.rto_min <= 0) {
      errors.push_back(where + ".rto_min must be positive with adaptive_rto "
                               "(it is the estimator's lower clamp, RFC 6298 "
                               "style)");
    }
    if (r.rto_max < r.rto_min) {
      std::ostringstream os;
      os << where << ".rto_max (" << r.rto_max << "us) is below rto_min ("
         << r.rto_min << "us)";
      errors.push_back(os.str());
    }
  }
}

/// Shared by EngineConfig::batch and EngineConfig::gateway — both layers
/// run on the same coalescing core, so the threshold invariants are one.
void validate_coalesce(const net::CoalesceConfig& c, const std::string& where,
                       std::vector<std::string>& errors) {
  if (c.max_messages < 1) {
    errors.push_back(where + ".max_messages must be >= 1 (a frame needs at "
                             "least one message to flush on)");
  }
  if (c.max_delay < 1) {
    errors.push_back(where + ".max_delay must be >= 1us (the flush timer "
                             "bounds how long a lone message waits; 0 would "
                             "flush-on-send and defeat coalescing)");
  }
}

}  // namespace

std::vector<std::string> validate(const EngineConfig& config) {
  std::vector<std::string> errors;
  const auto reject = [&errors](const std::string& message) {
    errors.push_back(message);
  };

  if (config.sites == 0) {
    reject("sites must be >= 1 (a cluster needs at least one site)");
  }
  if (config.variables == 0) {
    reject("variables must be >= 1 (the workload has nothing to touch otherwise)");
  }
  if (config.replication > config.sites) {
    std::ostringstream os;
    os << "replication (" << config.replication << ") exceeds sites ("
       << config.sites << "); use 0 for full replication";
    reject(os.str());
  }
  if (causal::requires_full_replication(config.protocol) &&
      config.sites != 0 && config.effective_replication() != config.sites) {
    std::ostringstream os;
    os << to_string(config.protocol) << " requires full replication: set "
       << "replication to 0 or " << config.sites << ", not " << config.replication;
    reject(os.str());
  }
  if (config.latency_lo > config.latency_hi) {
    std::ostringstream os;
    os << "latency_lo (" << config.latency_lo << "us) exceeds latency_hi ("
       << config.latency_hi << "us); swap the bounds";
    reject(os.str());
  }
  if (!config.fetch_distances.empty()) {
    const std::size_t n = config.sites;
    bool square = config.fetch_distances.size() == n;
    for (const auto& row : config.fetch_distances) {
      if (row.size() != n) square = false;
    }
    if (!square) {
      std::ostringstream os;
      os << "fetch_distances must be an " << n << "x" << n
         << " matrix (got " << config.fetch_distances.size() << " rows)";
      reject(os.str());
    }
  }
  if (config.fetch_policy == dsm::FetchPolicy::kNearest &&
      config.fetch_distances.empty()) {
    reject("FetchPolicy::kNearest needs fetch_distances (e.g. the latency "
           "model's base matrix)");
  }
  if (config.live != nullptr &&
      (config.live->sites() != config.sites ||
       config.live->variables() != config.variables)) {
    std::ostringstream os;
    os << "live telemetry shape (" << config.live->sites() << " sites, "
       << config.live->variables() << " variables) does not match the config ("
       << config.sites << " sites, " << config.variables
       << " variables); construct the LiveTelemetry from the same shape";
    reject(os.str());
  }
  if (config.executor == ExecutorKind::kPerSite && config.workers != 0) {
    std::ostringstream os;
    os << "workers (" << config.workers << ") is only meaningful with "
       << "executor=pooled; the per-site executor always runs one worker per "
       << "site — set executor to ExecutorKind::kPooled or workers to 0";
    reject(os.str());
  }
  if (config.batch.enabled) validate_coalesce(config.batch, "batch", errors);
  if (config.fault_plan.any() || config.reliable_channel ||
      config.topology.any_faults() || config.topology.any_reliable_override()) {
    validate_reliable(config.reliable_config, "reliable_config", errors);
  }
  if (config.topology.enabled()) {
    for (const std::string& e : config.topology.validate(config.sites)) {
      reject("topology: " + e);
    }
    if (config.latency_model != nullptr) {
      reject("topology and latency_model are mutually exclusive: the "
             "topology's per-scope profiles become the latency model; drop "
             "one of them");
    }
    const auto check_profile_reliable = [&errors](
                                            const topo::LinkProfile& p,
                                            const std::string& scope) {
      if (p.reliable.has_value()) {
        validate_reliable(*p.reliable, "topology " + scope + " reliable",
                          errors);
      }
    };
    check_profile_reliable(config.topology.intra, "intra");
    check_profile_reliable(config.topology.inter, "inter");
    for (const auto& [pair, p] : config.topology.pair_overrides) {
      std::ostringstream scope;
      scope << "pair (" << pair.first << " -> " << pair.second << ")";
      check_profile_reliable(p, scope.str());
    }
  }
  if (config.gateway.enabled) {
    if (!config.topology.multi_cell()) {
      std::ostringstream os;
      os << "gateway.enabled requires a multi-cell topology (have "
         << config.topology.cell_count()
         << " cell(s)); group the sites into >= 2 cells or disable the "
         << "gateway";
      reject(os.str());
    }
    validate_coalesce(config.gateway, "gateway", errors);
  }
  return errors;
}

void validate_or_panic(const EngineConfig& config) {
  const std::vector<std::string> errors = validate(config);
  if (errors.empty()) return;
  std::ostringstream os;
  for (const std::string& e : errors) os << "\n  - " << e;
  CAUSIM_CHECK(false, "invalid EngineConfig:" << os.str());
}

}  // namespace causim::engine
