#include "obs/live/live_telemetry.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/panic.hpp"
#include "obs/metrics_registry.hpp"

namespace causim::obs::live {

/// One outstanding SM send awaiting its activation. `wire` and `dropped`
/// are filled by the critpath instrument (first-hop kWireDelay / kDrop
/// matching); the baseline visibility tracker only reads `t`.
struct PendingSend {
  SimTime t = 0;
  SimTime wire = 0;
  bool dropped = false;
};

/// Per-variable FIFO of outstanding sends: a ring over a vector.
/// Push at tail, pop at head; grows (amortized, doubling) only while the
/// number of in-flight same-variable writes exceeds every previous burst.
struct PendingQueue {
  std::vector<PendingSend> slots;
  std::size_t head = 0;
  std::size_t size = 0;

  /// Pushes and returns the ring index of the new element (the critpath
  /// wire matcher patches it before anything else can touch the queue).
  std::size_t push(SimTime t) {
    if (size == slots.size()) {
      // Full: re-linearize into a doubled buffer (rare; steady state never
      // allocates once the deepest in-flight burst has been seen).
      std::vector<PendingSend> grown;
      grown.reserve(std::max<std::size_t>(8, slots.size() * 2));
      for (std::size_t i = 0; i < size; ++i) grown.push_back(slots[(head + i) % slots.size()]);
      grown.resize(grown.capacity());
      slots = std::move(grown);
      head = 0;
    }
    const std::size_t at = (head + size) % slots.size();
    slots[at] = PendingSend{t, 0, false};
    ++size;
    return at;
  }

  bool pop(PendingSend* out) {
    if (size == 0) return false;
    *out = slots[head];
    head = (head + 1) % slots.size();
    --size;
    return true;
  }
};

struct LiveTelemetry::Shard {
  explicit Shard(const LiveConfig& config)
      : histogram(stats::Histogram::log_scale(config.latency_lo_us, config.latency_hi_us,
                                              config.buckets_per_decade)),
        queues(config.variables) {}

  std::mutex mutex;
  stats::Histogram histogram;
  std::vector<PendingQueue> queues;  // one per variable

  /// Critpath wire matcher: the SM pushed last on this channel, still
  /// awaiting its first kWireDelay / kDrop. Sound because the transport
  /// emits the wire event synchronously after the send on the same channel
  /// (exact under the DES; best-effort under thread interleaving).
  bool awaiting_wire = false;
  VarId awaiting_var = kInvalidVar;
  std::size_t awaiting_slot = 0;
};

/// Critpath instrument state (LiveConfig::critpath). One global shard: the
/// segment histograms see every site pair, the blocked-on table is
/// cluster-wide, and contention stays off the baseline path.
struct LiveTelemetry::Critpath {
  explicit Critpath(const LiveConfig& config)
      : wire(stats::Histogram::log_scale(config.latency_lo_us, config.latency_hi_us,
                                         config.buckets_per_decade)),
        arq(wire.empty_clone()),
        dep_wait(wire.empty_clone()),
        blocked_writer_us(config.sites, 0.0),
        top_k(std::max<std::size_t>(1, config.critpath_top_k)) {}

  struct TopEntry {
    std::uint64_t segments = 0;
    double wait_us = 0.0;
    double error_us = 0.0;  // space-saving over-count bound
  };

  std::mutex mutex;
  stats::Histogram wire;
  stats::Histogram arq;
  stats::Histogram dep_wait;
  double wire_total_us = 0.0;
  double arq_total_us = 0.0;
  double dep_wait_total_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t dep_segments = 0;
  std::uint64_t dropped_first_tx = 0;
  std::vector<double> blocked_writer_us;
  /// Space-saving (Misra-Gries) table keyed by the packed blocking dep,
  /// weighted by wait µs: bounded memory, deterministic eviction (min
  /// weight, ties to the largest key so older/smaller ids survive).
  std::map<std::uint64_t, TopEntry> top;
  std::size_t top_k;

  void record_blocked(std::uint64_t key, SimTime wait) {
    const auto w = static_cast<double>(wait);
    ++dep_segments;
    const auto it = top.find(key);
    if (it != top.end()) {
      ++it->second.segments;
      it->second.wait_us += w;
      return;
    }
    if (top.size() < top_k) {
      top.emplace(key, TopEntry{1, w, 0.0});
      return;
    }
    auto victim = top.begin();
    for (auto i = std::next(top.begin()); i != top.end(); ++i) {
      if (i->second.wait_us <= victim->second.wait_us) victim = i;
    }
    const TopEntry evicted = victim->second;
    top.erase(victim);
    top.emplace(key, TopEntry{evicted.segments + 1, evicted.wait_us + w,
                              evicted.wait_us});
  }
};

LiveTelemetry::LiveTelemetry(const LiveConfig& config) : config_(config) {
  CAUSIM_CHECK(config.sites > 0 && config.variables > 0,
               "live telemetry needs the cluster shape: sites=" << config.sites
                                                                << " variables=" << config.variables);
  const std::size_t n = config_.sites;
  shards_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) shards_.push_back(std::make_unique<Shard>(config_));
  if (config_.critpath) critpath_ = std::make_unique<Critpath>(config_);
  samples_.reserve(config_.max_samples);
}

LiveTelemetry::~LiveTelemetry() = default;

LiveTelemetry::Shard& LiveTelemetry::shard(SiteId origin, SiteId dest) {
  return *shards_[static_cast<std::size_t>(origin) * config_.sites + dest];
}

const LiveTelemetry::Shard& LiveTelemetry::shard(SiteId origin, SiteId dest) const {
  return *shards_[static_cast<std::size_t>(origin) * config_.sites + dest];
}

void LiveTelemetry::begin_run(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  if (!run_seeds_.empty()) ++run_;
  run_seeds_.push_back(seed);
}

void LiveTelemetry::on_send(const TraceEvent& event) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  if (event.kind != MessageKind::kSM) return;
  if (event.site >= config_.sites || event.peer >= config_.sites ||
      event.a >= config_.variables) {
    return;  // not a site-to-site SM of this cluster's shape
  }
  Shard& s = shard(event.site, event.peer);
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t at = s.queues[event.a].push(event.ts);
  if (critpath_ != nullptr) {
    s.awaiting_wire = true;
    s.awaiting_var = static_cast<VarId>(event.a);
    s.awaiting_slot = at;
  }
}

void LiveTelemetry::on_wire_delay(const TraceEvent& event) {
  // kWireDelay: site = sender, peer = destination. The transport emits it
  // synchronously after the kSend it serves, so a pending marker on this
  // channel belongs to that send's SM.
  if (event.site >= config_.sites || event.peer >= config_.sites) return;
  Shard& s = shard(event.site, event.peer);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.awaiting_wire) return;
  s.queues[s.awaiting_var].slots[s.awaiting_slot].wire = event.dur;
  s.awaiting_wire = false;
}

void LiveTelemetry::on_first_tx_lost(const TraceEvent& event, bool dropped) {
  // kDrop / kRetransmit: the awaiting SM's first transmission never made a
  // clean hop — its whole transit will count as arq (wire stays 0).
  if (event.site >= config_.sites || event.peer >= config_.sites) return;
  Shard& s = shard(event.site, event.peer);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.awaiting_wire) return;
  if (dropped) s.queues[s.awaiting_var].slots[s.awaiting_slot].dropped = true;
  s.awaiting_wire = false;
}

void LiveTelemetry::on_dep_satisfied(const TraceEvent& event) {
  const SiteId writer = static_cast<SiteId>((event.c >> 32) & 0xFFFFu);
  std::lock_guard<std::mutex> lock(critpath_->mutex);
  if (writer < config_.sites) {
    critpath_->blocked_writer_us[writer] += static_cast<double>(event.dur);
  }
  critpath_->record_blocked(event.c, event.dur);
}

void LiveTelemetry::on_activated(const TraceEvent& event) {
  applies_.fetch_add(1, std::memory_order_relaxed);
  // kActivated: site = destination, peer = the SM's sender (origin).
  if (event.site >= config_.sites || event.peer >= config_.sites ||
      event.a >= config_.variables) {
    unmatched_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The span is [receipt, apply): ts is the receipt, dur the buffered wait.
  const SimTime t_recv = event.ts;
  const SimTime t_apply = event.ts + event.dur;
  Shard& s = shard(event.peer, event.site);
  double latency_us = 0.0;
  PendingSend sent;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.queues[event.a].pop(&sent)) {
      unmatched_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // The popped slot can be the one the wire matcher still points at
    // (e.g. an unmatched first hop); invalidate so a later kWireDelay
    // cannot patch a recycled slot.
    if (s.awaiting_wire && s.awaiting_var == static_cast<VarId>(event.a) &&
        s.queues[event.a].size == 0) {
      s.awaiting_wire = false;
    }
    latency_us = static_cast<double>(std::max<SimTime>(0, t_apply - sent.t));
    s.histogram.record(latency_us);
  }
  matched_.fetch_add(1, std::memory_order_relaxed);
  if (critpath_ != nullptr) {
    const SimTime transit = std::max<SimTime>(0, t_recv - sent.t);
    const SimTime wire = std::min(std::max<SimTime>(0, sent.wire), transit);
    const SimTime arq = transit - wire;
    const SimTime dep_wait = event.dur;
    std::lock_guard<std::mutex> lock(critpath_->mutex);
    ++critpath_->ops;
    if (sent.dropped) ++critpath_->dropped_first_tx;
    if (wire > 0) critpath_->wire.record(static_cast<double>(wire));
    if (arq > 0) critpath_->arq.record(static_cast<double>(arq));
    if (dep_wait > 0) critpath_->dep_wait.record(static_cast<double>(dep_wait));
    critpath_->wire_total_us += static_cast<double>(wire);
    critpath_->arq_total_us += static_cast<double>(arq);
    critpath_->dep_wait_total_us += static_cast<double>(dep_wait);
  }
  if (config_.keep_latency_samples) {
    std::lock_guard<std::mutex> lock(raw_mutex_);
    raw_latencies_.push_back(latency_us);
  }
}

void LiveTelemetry::emit(const TraceEvent& event) {
  switch (event.type) {
    case TraceEventType::kOpComplete:
      ops_.fetch_add(1, std::memory_order_relaxed);
      break;
    case TraceEventType::kSend:
      on_send(event);
      break;
    case TraceEventType::kActivated:
      on_activated(event);
      break;
    case TraceEventType::kWireDelay:
      if (critpath_ != nullptr) on_wire_delay(event);
      break;
    case TraceEventType::kDrop:
      if (critpath_ != nullptr) on_first_tx_lost(event, /*dropped=*/true);
      break;
    case TraceEventType::kRetransmit:
      if (critpath_ != nullptr) on_first_tx_lost(event, /*dropped=*/false);
      break;
    case TraceEventType::kDepSatisfied:
      if (critpath_ != nullptr) on_dep_satisfied(event);
      break;
    default:
      break;
  }
  if (downstream_ != nullptr) downstream_->emit(event);
}

void LiveTelemetry::record_sample(SimTime now, const StackGauges& gauges) {
  TimeSample sample;
  sample.ts = now;
  sample.ops = ops_.load(std::memory_order_relaxed);
  sample.sends = sends_.load(std::memory_order_relaxed);
  sample.applies = applies_.load(std::memory_order_relaxed);
  sample.wire_inflight = gauges.wire_inflight;
  sample.buffered_sm = gauges.buffered_sm;
  sample.log_entries = gauges.log_entries;
  sample.log_bytes = gauges.log_bytes;
  sample.reliable_frames = gauges.reliable_frames;
  sample.retransmits = gauges.retransmits;
  std::lock_guard<std::mutex> lock(sample_mutex_);
  sample.run = run_;
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
  if (samples_.size() >= config_.max_samples) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  samples_.push_back(sample);
}

stats::Histogram LiveTelemetry::visibility_histogram() const {
  stats::Histogram merged = shards_.front()->histogram.empty_clone();
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    merged += s->histogram;
  }
  return merged;
}

const stats::Histogram& LiveTelemetry::pair_histogram(SiteId origin, SiteId dest) const {
  return shard(origin, dest).histogram;
}

VisibilitySummary LiveTelemetry::visibility_summary() const {
  const stats::Histogram h = visibility_histogram();
  VisibilitySummary s;
  s.count = h.count();
  s.unmatched = unmatched();
  s.mean_us = h.mean();
  s.max_us = h.max();
  s.p50_us = h.p50();
  s.p90_us = h.p90();
  s.p99_us = h.p99();
  s.p999_us = h.p999();
  return s;
}

CritpathSummary LiveTelemetry::critpath_summary() const {
  CritpathSummary s;
  if (critpath_ == nullptr) return s;
  std::lock_guard<std::mutex> lock(critpath_->mutex);
  s.enabled = true;
  s.ops = critpath_->ops;
  s.dep_segments = critpath_->dep_segments;
  s.dropped_first_tx = critpath_->dropped_first_tx;
  const auto digest = [](const stats::Histogram& h, double total) {
    CritpathSegment seg;
    seg.count = h.count();
    seg.total_us = total;
    seg.mean_us = h.mean();
    seg.p50_us = h.p50();
    seg.p90_us = h.p90();
    seg.p99_us = h.p99();
    seg.max_us = h.max();
    return seg;
  };
  s.wire = digest(critpath_->wire, critpath_->wire_total_us);
  s.arq = digest(critpath_->arq, critpath_->arq_total_us);
  s.dep_wait = digest(critpath_->dep_wait, critpath_->dep_wait_total_us);
  s.blocked_on_writer_us = critpath_->blocked_writer_us;
  s.top_blockers.reserve(critpath_->top.size());
  for (const auto& [key, entry] : critpath_->top) {
    BlockedOnEntry row;
    row.writer = static_cast<SiteId>((key >> 32) & 0xFFFFu);
    row.value = static_cast<WriteClock>(key & 0xFFFFFFFFull);
    row.ordinal = (key & kBlockingDepOrdinalBit) != 0;
    row.segments = entry.segments;
    row.wait_us = entry.wait_us;
    row.error_us = entry.error_us;
    s.top_blockers.push_back(row);
  }
  std::sort(s.top_blockers.begin(), s.top_blockers.end(),
            [](const BlockedOnEntry& a, const BlockedOnEntry& b) {
              if (a.wait_us != b.wait_us) return a.wait_us > b.wait_us;
              if (a.writer != b.writer) return a.writer < b.writer;
              return a.value < b.value;
            });
  return s;
}

std::vector<double> LiveTelemetry::latency_samples() const {
  std::lock_guard<std::mutex> lock(raw_mutex_);
  return raw_latencies_;
}

void LiveTelemetry::write_timeseries_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  out << "{\"schema\":\"causim.timeseries.v1\"";
  out << ",\"interval_us\":" << config_.sample_interval;
  out << ",\"sites\":" << config_.sites;
  out << ",\"truncated\":" << truncated_.load(std::memory_order_relaxed);
  out << ",\"runs\":[";
  for (std::size_t i = 0; i < run_seeds_.size(); ++i) {
    if (i != 0) out << ",";
    out << "{\"run\":" << i << ",\"seed\":" << run_seeds_[i] << "}";
  }
  out << "],\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const TimeSample& s = samples_[i];
    if (i != 0) out << ",";
    out << "{\"run\":" << s.run << ",\"ts\":" << s.ts << ",\"ops\":" << s.ops
        << ",\"sends\":" << s.sends << ",\"applies\":" << s.applies
        << ",\"wire_inflight\":" << s.wire_inflight << ",\"buffered_sm\":" << s.buffered_sm
        << ",\"log_entries\":" << s.log_entries << ",\"log_bytes\":" << s.log_bytes
        << ",\"reliable_frames\":" << s.reliable_frames
        << ",\"retransmits\":" << s.retransmits << "}";
  }
  out << "]}\n";
}

void LiveTelemetry::export_metrics(MetricsRegistry& registry) const {
  const stats::Histogram merged = visibility_histogram();
  registry.histogram("live.visibility.us", merged) += merged;
  registry.counter("live.ops").add(ops());
  registry.counter("live.sends").add(sends());
  registry.counter("live.applies").add(applies());
  registry.counter("live.visibility.matched").add(matched());
  registry.counter("live.visibility.unmatched").add(unmatched());
  registry.counter("live.samples").add(samples_taken_.load(std::memory_order_relaxed));
  if (critpath_ != nullptr) {
    std::lock_guard<std::mutex> lock(critpath_->mutex);
    registry.histogram("live.critpath.wire.us", critpath_->wire) += critpath_->wire;
    registry.histogram("live.critpath.arq.us", critpath_->arq) += critpath_->arq;
    registry.histogram("live.critpath.dep_wait.us", critpath_->dep_wait) +=
        critpath_->dep_wait;
    registry.counter("live.critpath.ops").add(critpath_->ops);
    registry.counter("live.critpath.dep_segments").add(critpath_->dep_segments);
    registry.counter("live.critpath.dropped_first_tx").add(critpath_->dropped_first_tx);
  }
}

void replay_events(const std::vector<TraceEvent>& events, LiveTelemetry& into) {
  for (const TraceEvent& e : events) into.emit(e);
}

}  // namespace causim::obs::live
