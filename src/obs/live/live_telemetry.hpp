// causim::obs::live — online, bounded-memory telemetry.
//
// The offline pipeline (RingBufferSink -> obs::analysis) needs the whole
// trace in memory before it can say anything; this module computes the
// headline statistics *while the run executes*, from the same lifecycle
// events, so a service-sized run can report visibility latency and
// throughput without recording anything.
//
// Two instruments share one subscriber:
//
//  * Visibility-latency tracker. Every SM send (kSend, kind = SM) pushes
//    its origin timestamp onto a per-(origin site, destination site,
//    variable) FIFO queue; the matching kActivated at the destination pops
//    it and feeds the visibility latency `t_apply - t_send` into a
//    per-site-pair log-bucketed histogram (p50/p90/p99/p999). t_apply is
//    the kActivated span's end, ts + dur: receipt plus the time the update
//    waited buffered. The FIFO match is sound because causal delivery
//    applies a sender's writes to one variable in program order — the k-th
//    activation of (origin, var) at a site is the k-th send.
//
//  * Time-series sampler. A periodic driver (SimExecutor under the DES,
//    engine::PooledExecutor's sampler timer under threads) calls
//    record_sample() with the cluster-wide gauges; samples append to a
//    pre-reserved buffer and serialize as a deterministic
//    `causim.timeseries.v1` JSON stream. The same tick emits one
//    `time_sample` trace event per site carrying that site's log
//    occupancy — the series obs::analysis reports as `log_occupancy`.
//
// LiveTelemetry is itself a TraceSink: the engine interposes it in front
// of the user's sink (events are forwarded unchanged), so attaching it
// costs one virtual call per event and zero heap allocations on the hot
// path — shards are pre-sized to sites², queue tables to the variable
// count, and the sample buffer to its cap (overflow increments a counter
// instead of growing).
//
// The tracker keeps no clock of its own: every event arrives stamped at
// its source on the stack clock — Simulator::now() under the DES, where
// the whole output is a pure function of (schedule, seed), and
// ThreadTransport::now() under threads — and the samplers stamp their
// ticks with the same clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "common/ids.hpp"
#include "obs/trace_sink.hpp"
#include "stats/histogram.hpp"

namespace causim::obs {
class MetricsRegistry;
}  // namespace causim::obs

namespace causim::obs::live {

struct LiveConfig {
  /// Cluster shape; must match the engine config the telemetry attaches to
  /// (EngineConfig::validate checks).
  SiteId sites = 0;
  VarId variables = 0;

  /// Visibility histogram range in µs and log-bucket resolution. The
  /// defaults span 1 µs .. 100 s at 16 buckets/decade (~15.5 % relative
  /// quantile error), covering both DES wire delays (ms) and thread-substrate
  /// latencies (µs).
  double latency_lo_us = 1.0;
  double latency_hi_us = 1e8;
  std::size_t buckets_per_decade = 16;

  /// Time-series sample period (µs of the driving clock); 0 disables the
  /// sampler (the visibility tracker still runs).
  SimTime sample_interval = 0;
  /// Sample buffer cap; past it samples are dropped and counted, never
  /// allocated.
  std::size_t max_samples = 4096;

  /// Keep every raw latency sample (tests compare streamed quantiles
  /// against the exact sorted-sample oracle). Unbounded — off in benches.
  bool keep_latency_samples = false;

  /// Critical-path decomposition (PR 7): additionally fold every matched
  /// SM's visibility latency into per-segment streaming histograms
  /// (wire / arq / dep_wait, using the true apply instant ts + dur) and a
  /// bounded top-K "blocked on" table fed by kDepSatisfied segments.
  /// Memory stays O(sites² + top-K); off by default so the baseline
  /// visibility tracker (and its bench.v1 bytes) are untouched.
  bool critpath = false;
  /// Capacity of the space-saving top-K blocked-on table.
  std::size_t critpath_top_k = 8;
};

/// Cluster-wide gauges the engine snapshots into each time sample.
struct StackGauges {
  std::uint64_t wire_inflight = 0;   // packets sent - delivered
  std::uint64_t buffered_sm = 0;     // SMs waiting on the activation predicate
  std::uint64_t log_entries = 0;     // causal-log entries across sites
  std::uint64_t log_bytes = 0;       // serialized causal-log bytes
  std::uint64_t reliable_frames = 0; // net.reliable.* wire frames so far
  std::uint64_t retransmits = 0;
};

/// One row of the causim.timeseries.v1 stream. Counters are cumulative
/// since construction (diff consecutive rows for rates).
struct TimeSample {
  std::uint32_t run = 0;  // begin_run() ordinal (multi-seed cells)
  SimTime ts = 0;
  std::uint64_t ops = 0;
  std::uint64_t sends = 0;
  std::uint64_t applies = 0;
  std::uint64_t wire_inflight = 0;
  std::uint64_t buffered_sm = 0;
  std::uint64_t log_entries = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t reliable_frames = 0;
  std::uint64_t retransmits = 0;
};

/// One critical-path segment's streaming digest (LiveConfig::critpath).
struct CritpathSegment {
  std::uint64_t count = 0;  // ops with a nonzero contribution
  double total_us = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// One row of the bounded blocked-on table: a specific blocking dependency
/// and the total dependency-wait attributed to it. `ordinal` mirrors the
/// pack_blocking_dep tag — true means `value` is a per-destination apply
/// ordinal (Full-Track), false a writer clock (a concrete WriteId).
/// `error_us` is the space-saving over-count bound (0 = exact).
struct BlockedOnEntry {
  SiteId writer = kInvalidSite;
  WriteClock value = 0;
  bool ordinal = false;
  std::uint64_t segments = 0;
  double wait_us = 0.0;
  double error_us = 0.0;
};

/// Everything the critpath instrument learned (bench.v1 `critpath` block).
struct CritpathSummary {
  bool enabled = false;
  std::uint64_t ops = 0;               // matched activations folded in
  std::uint64_t dep_segments = 0;      // kDepSatisfied events observed
  std::uint64_t dropped_first_tx = 0;  // ops whose first transmission was lost
  CritpathSegment wire, arq, dep_wait;
  /// Exact per-blocking-writer dependency-wait totals (µs), index = site.
  std::vector<double> blocked_on_writer_us;
  /// Top-K individual blockers by attributed wait, descending (ties by
  /// packed id); bounded by LiveConfig::critpath_top_k.
  std::vector<BlockedOnEntry> top_blockers;
};

/// The quantile digest a bench.v1 cell embeds.
struct VisibilitySummary {
  std::uint64_t count = 0;
  std::uint64_t unmatched = 0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

class LiveTelemetry final : public TraceSink {
 public:
  explicit LiveTelemetry(const LiveConfig& config);
  ~LiveTelemetry() override;

  LiveTelemetry(const LiveTelemetry&) = delete;
  LiveTelemetry& operator=(const LiveTelemetry&) = delete;

  SiteId sites() const { return config_.sites; }
  VarId variables() const { return config_.variables; }
  SimTime sample_interval() const { return config_.sample_interval; }

  /// Events are forwarded here after being observed; may be null.
  void set_downstream(TraceSink* sink) { downstream_ = sink; }
  TraceSink* downstream() const { return downstream_; }

  /// Marks the start of the next seed's run inside one cell; subsequent
  /// time samples carry the new run ordinal. Histograms keep accumulating
  /// across runs (per-seed queues drain to empty at quiescence).
  void begin_run(std::uint64_t seed);

  // -- TraceSink --
  void emit(const TraceEvent& event) override;

  // -- sampler side (called by the engine's periodic driver) --
  /// Appends one row stamped `now`, a reading of the stack clock.
  void record_sample(SimTime now, const StackGauges& gauges);
  std::uint64_t samples_recorded() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

  // -- results --
  std::uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  std::uint64_t sends() const { return sends_.load(std::memory_order_relaxed); }
  std::uint64_t applies() const { return applies_.load(std::memory_order_relaxed); }
  std::uint64_t matched() const { return matched_.load(std::memory_order_relaxed); }
  std::uint64_t unmatched() const { return unmatched_.load(std::memory_order_relaxed); }

  /// All site pairs merged into one histogram (µs).
  stats::Histogram visibility_histogram() const;
  /// One (origin, destination) pair's histogram (µs).
  const stats::Histogram& pair_histogram(SiteId origin, SiteId dest) const;
  VisibilitySummary visibility_summary() const;

  /// Critpath digest; `enabled` is false when LiveConfig::critpath was off
  /// (every other field is then zero).
  CritpathSummary critpath_summary() const;

  /// Raw latencies in match order (only with keep_latency_samples).
  std::vector<double> latency_samples() const;

  const std::vector<TimeSample>& samples() const { return samples_; }
  std::uint64_t truncated_samples() const {
    return truncated_.load(std::memory_order_relaxed);
  }

  /// Serializes the sample buffer as causim.timeseries.v1 (deterministic:
  /// identical runs produce byte-identical streams).
  void write_timeseries_json(std::ostream& out) const;

  /// Folds the tracker's totals and merged histogram into a registry
  /// (live.visibility.us histogram, live.* counters).
  void export_metrics(MetricsRegistry& registry) const;

 private:
  /// One (origin, dest) pair: a mutex, the pair's histogram, and one
  /// send-timestamp FIFO per variable (a ring over a vector; the table is
  /// pre-sized to the variable count, rings grow amortized and reach a
  /// steady state after the first burst — no per-event allocation).
  struct Shard;

  /// Critpath state (allocated only with LiveConfig::critpath): segment
  /// histograms, per-writer wait totals, the space-saving table.
  struct Critpath;

  Shard& shard(SiteId origin, SiteId dest);
  const Shard& shard(SiteId origin, SiteId dest) const;
  void on_send(const TraceEvent& event);
  void on_activated(const TraceEvent& event);
  void on_wire_delay(const TraceEvent& event);
  void on_first_tx_lost(const TraceEvent& event, bool dropped);
  void on_dep_satisfied(const TraceEvent& event);

  LiveConfig config_;
  TraceSink* downstream_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;  // sites × sites
  std::unique_ptr<Critpath> critpath_;          // null unless enabled

  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> applies_{0};
  std::atomic<std::uint64_t> matched_{0};
  std::atomic<std::uint64_t> unmatched_{0};

  mutable std::mutex sample_mutex_;
  std::vector<TimeSample> samples_;  // reserved to max_samples up front
  std::atomic<std::uint64_t> samples_taken_{0};
  std::atomic<std::uint64_t> truncated_{0};
  std::uint32_t run_ = 0;
  std::vector<std::uint64_t> run_seeds_;

  mutable std::mutex raw_mutex_;
  std::vector<double> raw_latencies_;  // only with keep_latency_samples
};

/// Feeds a recorded trace through a fresh tracker — the offline path. The
/// streaming and offline paths agree exactly on the same event stream
/// (asserted by tests/test_obs_live.cpp).
void replay_events(const std::vector<TraceEvent>& events, LiveTelemetry& into);

}  // namespace causim::obs::live
