// Service harness — open-loop KV traffic over a full cluster stack.
//
// run_service() is the KV analogue of bench_support::run_experiment: it
// generates an open-loop workload (workload::OpenLoopGen), assembles a
// cluster on the chosen substrate, opens the configured client sessions,
// routes every schedule slot through kv::Store via the schedule driver's
// dispatch hook, and reports service-level results — sustained ops/sec
// and client-observed latency quantiles (p50/p99/p999) next to the usual
// message/metadata counters.
//
// Client-observed latency is measured per completed operation and
// recorded into per-site log-scale histograms (the obs::live streaming
// histogram convention: 1 µs .. 100 s, 16 buckets/decade), merged at the
// end. On the discrete-event substrate the latency of an op is
// (completion sim-time − scheduled arrival): true open-loop latency,
// including the queueing delay a backed-up site accumulates, and
// byte-deterministic for a fixed seed. On the thread substrates it is the
// wall-clock dispatch-to-completion time (the pool does not pace arrivals,
// so those lanes measure saturation service time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "kv/store.hpp"
#include "stats/histogram.hpp"
#include "stats/message_stats.hpp"
#include "workload/open_loop.hpp"

namespace causim::obs {
class MetricsRegistry;
}  // namespace causim::obs

namespace causim::kv {

/// Which execution substrate serves the traffic. kSim is the
/// deterministic DES lane; kThread is the worker pool with one worker per
/// site; kPooled multiplexes the sites over `workers` pool workers (the
/// throughput lane).
enum class Substrate : std::uint8_t { kSim = 0, kThread, kPooled };

const char* to_string(Substrate substrate);

struct ServiceParams {
  /// Cluster shape. variables must match store.map; seed, executor and
  /// workers are derived from `workload.seed` / `substrate` by
  /// run_service.
  engine::EngineConfig engine;
  workload::OpenLoopParams workload;
  StoreConfig store;
  Substrate substrate = Substrate::kSim;
  /// Worker threads for kPooled (0 = hardware concurrency).
  unsigned workers = 0;
  /// Record the history and run the causal checker after the run (tests).
  bool check = false;
  /// Cluster metric export target (msg.*, site.*, net.* counters), or
  /// null. Must outlive the call.
  obs::MetricsRegistry* metrics = nullptr;
};

struct LatencyDigest {
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

LatencyDigest digest(const stats::Histogram& h);

struct ServiceResult {
  // -- service level --
  std::uint64_t ops = 0;           // every slot the schedule issued
  std::uint64_t recorded_ops = 0;  // past the warm-up cutoff
  SessionStats sessions;           // puts/gets/retries/stale/violations
  std::uint64_t session_count = 0;
  /// Client-observed latency of recorded ops, merged across sites.
  stats::Histogram get_latency_us = stats::Histogram::log_scale(1.0, 1e8, 16);
  stats::Histogram put_latency_us = stats::Histogram::log_scale(1.0, 1e8, 16);
  /// First to last recorded completion (simulated seconds on kSim, wall
  /// seconds on the thread substrates).
  double duration_s = 0.0;
  double sustained_ops_per_sec = 0.0;

  // -- the usual cluster counters (one run) --
  stats::MessageStats stats;
  std::size_t recorded_writes = 0;
  std::size_t recorded_reads = 0;
  stats::Summary log_entries;
  stats::Summary fetch_latency_us;
  stats::Summary apply_delay_us;
  std::uint64_t drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t reliable_frames = 0;
  std::uint64_t reliable_packets = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t batch_frames = 0;
  std::uint64_t batch_messages = 0;
  std::uint64_t lan_messages = 0;
  std::uint64_t wan_messages = 0;
  std::uint64_t lan_bytes = 0;
  std::uint64_t wan_bytes = 0;
  std::uint64_t wan_frames = 0;
  std::uint64_t gateway_frames = 0;
  std::uint64_t gateway_frame_messages = 0;
  std::uint64_t gateway_enroute = 0;
  bool check_ok = true;
  std::vector<std::string> violations;
};

/// Runs one open-loop service cell to quiescence. Deterministic on kSim:
/// same params, byte-identical result (service_block_json compares equal).
ServiceResult run_service(const ServiceParams& params);

/// The bench.v1 `service` block for a result — one JSON object, no
/// trailing comma, reused by bench_support::Observability and by the
/// determinism tests (it contains no wall-clock field on the kSim
/// substrate's deterministic metrics; duration is simulated time there).
std::string service_block_json(const ServiceParams& params, const ServiceResult& result);

}  // namespace causim::kv
