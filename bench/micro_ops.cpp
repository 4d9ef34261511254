// Micro-benchmarks (google-benchmark) for the hot operations behind the
// simulation: clock merges, KS-log MERGE/PURGE, envelope round-trips, and
// discrete-event throughput. These are the per-message costs that bound
// how large an n the harness can sweep.
#include <benchmark/benchmark.h>

#include <cmath>

#include "causal/clocks.hpp"
#include "causal/ks_log.hpp"
#include "causal/opt_track.hpp"
#include "dsm/cluster.hpp"
#include "dsm/envelope.hpp"
#include "dsm/thread_cluster.hpp"
#include "net/reliable_channel.hpp"
#include "net/sim_transport.hpp"
#include "obs/live/live_telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "serial/buffer_pool.hpp"
#include "sim/latency.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace causim;

void BM_VectorClockMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::VectorClock a(n), b(n);
  for (SiteId i = 0; i < n; ++i) b[i] = i * 7 + 1;
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(5)->Arg(40)->Arg(200);

void BM_MatrixClockMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::MatrixClock a(n), b(n);
  for (SiteId j = 0; j < n; ++j) {
    for (SiteId k = 0; k < n; ++k) b.at(j, k) = j + k;
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_MatrixClockMerge)->Arg(5)->Arg(40)->Arg(200);

void BM_MatrixClockSerialize(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  causal::MatrixClock m(n);
  for (auto _ : state) {
    serial::ByteWriter w;
    m.serialize(w);
    benchmark::DoNotOptimize(w.bytes());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(causal::MatrixClock::wire_bytes(n, serial::ClockWidth::k4Bytes)));
}
BENCHMARK(BM_MatrixClockSerialize)->Arg(5)->Arg(40);

causal::KsLog make_log(SiteId n, std::size_t entries, std::uint64_t seed) {
  sim::Pcg32 rng(seed);
  causal::KsLog log(n);
  for (std::size_t e = 0; e < entries; ++e) {
    const auto writer = static_cast<SiteId>(rng.uniform_int(0, n - 1));
    const auto clock = static_cast<WriteClock>(rng.uniform_int(1, 50));
    DestSet d(n);
    const auto count = static_cast<SiteId>(rng.uniform_int(0, n / 3));
    for (SiteId k = 0; k < count; ++k) {
      d.insert(static_cast<SiteId>(rng.uniform_int(0, n - 1)));
    }
    log.add({writer, clock}, d);
  }
  return log;
}

void BM_KsLogMerge(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  const causal::KsLog incoming = make_log(n, 2 * n, 99);
  for (auto _ : state) {
    causal::KsLog local = make_log(n, 2 * n, 7);
    local.merge(incoming);
    benchmark::DoNotOptimize(local);
  }
}
BENCHMARK(BM_KsLogMerge)->Arg(5)->Arg(40);

void BM_KsLogPurgeAndPrune(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  for (auto _ : state) {
    causal::KsLog log = make_log(n, 2 * n, 13);
    log.prune_by_program_order();
    log.purge();
    benchmark::DoNotOptimize(log);
  }
}
BENCHMARK(BM_KsLogPurgeAndPrune)->Arg(5)->Arg(40);

void BM_KsLogSerializeRoundTrip(benchmark::State& state) {
  const auto n = static_cast<SiteId>(state.range(0));
  const causal::KsLog log = make_log(n, 2 * n, 21);
  for (auto _ : state) {
    serial::ByteWriter w;
    log.serialize(w);
    serial::ByteReader r(w.bytes());
    const causal::KsLog back = causal::KsLog::deserialize(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_KsLogSerializeRoundTrip)->Arg(5)->Arg(40);

// Opt-Track after a short run at the paper's point (n sites, p = 0.3n,
// q = 100, w_rate 0.5). The sender's log, ~2.7n entries, is the piggyback
// of each SM it sends on `var`; the receiver is a replica of `var` that has
// applied every write the log names, so the predicate holds. The reader
// holds no replica of `var`, so it reads `var` through an RM.
struct PaperPoint {
  static constexpr SiteId kSender = 0;

  explicit PaperPoint(SiteId n) : cluster(config(n)) {
    workload::WorkloadParams wl;
    wl.variables = cluster.config().variables;
    wl.ops_per_site = 60;
    cluster.execute(workload::generate_schedule(n, wl));
    while (cluster.placement().replicas(var).count() < 2) ++var;
    const DestSet& dests = cluster.placement().replicas(var);
    while (receiver == kSender || !dests.contains(receiver)) ++receiver;
    while (dests.contains(reader)) ++reader;
    sender().log().serialize(meta);
  }

  static dsm::ClusterConfig config(SiteId n) {
    dsm::ClusterConfig c;
    c.sites = n;
    c.replication = static_cast<SiteId>(std::lround(0.3 * n));
    c.record_history = false;
    return c;
  }

  const causal::OptTrack& sender() const {
    return dynamic_cast<const causal::OptTrack&>(cluster.site(kSender).protocol());
  }
  causal::Protocol& protocol(SiteId site) { return cluster.site(site).protocol(); }

  /// One SM receipt at the receiver, applied; false if the predicate was false.
  bool receive_sm() {
    causal::Protocol& p = protocol(receiver);
    serial::ByteReader r(meta.bytes());
    auto update = p.decode_sm(
        causal::SmEnvelope{kSender, var, Value{1, 0}, WriteId{kSender, ++clock}},
        cluster.placement().replicas(var), r);
    if (!p.ready(*update)) return false;
    p.apply(*update);
    benchmark::DoNotOptimize(update);
    return true;
  }

  void set_counters(benchmark::State& state) const {
    state.counters["log_entries"] = static_cast<double>(sender().log().size());
    state.counters["meta_bytes"] = static_cast<double>(meta.size());
  }

  dsm::Cluster cluster;
  VarId var = 0;
  SiteId receiver = 0;
  SiteId reader = 0;
  serial::ByteWriter meta;
  WriteClock clock = 1u << 20;  // above every clock the log holds
};

// One SM receipt on Opt-Track: scan the piggyback, test the activation
// predicate, apply (which installs the bytes as LastWriteOn).
void BM_OptTrackSmReceive(benchmark::State& state) {
  PaperPoint point(static_cast<SiteId>(state.range(0)));
  for (auto _ : state) {
    if (!point.receive_sm()) {
      state.SkipWithError("activation predicate false");
      break;
    }
  }
  point.set_counters(state);
}
BENCHMARK(BM_OptTrackSmReceive)->Arg(8)->Arg(40);

// The same receipt, then the first local read of the variable: the read
// decodes the installed log and merges it into the receiver's log, so this
// minus BM_OptTrackSmReceive is the decode deferred to first use plus one
// merge (BM_OptTrackLocalRead).
void BM_OptTrackSmReceiveThenRead(benchmark::State& state) {
  PaperPoint point(static_cast<SiteId>(state.range(0)));
  causal::Protocol& receiver = point.protocol(point.receiver);
  for (auto _ : state) {
    if (!point.receive_sm()) {
      state.SkipWithError("activation predicate false");
      break;
    }
    receiver.local_read(point.var);
  }
  point.set_counters(state);
}
BENCHMARK(BM_OptTrackSmReceiveThenRead)->Arg(8)->Arg(40);

// A local read of a decoded LastWriteOn log: one merge into the site's log.
void BM_OptTrackLocalRead(benchmark::State& state) {
  PaperPoint point(static_cast<SiteId>(state.range(0)));
  if (!point.receive_sm()) state.SkipWithError("activation predicate false");
  causal::Protocol& receiver = point.protocol(point.receiver);
  receiver.local_read(point.var);  // the first use decodes the log
  for (auto _ : state) {
    receiver.local_read(point.var);
    benchmark::ClobberMemory();
  }
  point.set_counters(state);
}
BENCHMARK(BM_OptTrackLocalRead)->Arg(8)->Arg(40);

// A remote read's RM at a reader of the same LastWriteOn log: decode the
// served log, test it against the reader's Apply, merge it. Everything
// the fetch-completion path around the protocol adds is outside this.
void BM_OptTrackRmReceive(benchmark::State& state) {
  PaperPoint point(static_cast<SiteId>(state.range(0)));
  if (!point.receive_sm()) state.SkipWithError("activation predicate false");
  serial::ByteWriter rm;
  point.protocol(point.receiver).remote_return_meta(point.var, rm);
  causal::Protocol& reader = point.protocol(point.reader);
  for (auto _ : state) {
    serial::ByteReader r(rm.bytes());
    const auto ret = reader.decode_remote_return(r);
    if (!reader.return_ready(*ret)) {
      state.SkipWithError("remote return not ready");
      break;
    }
    reader.absorb_remote_return(point.var, *ret);
    benchmark::DoNotOptimize(ret);
  }
  state.counters["meta_bytes"] = static_cast<double>(rm.size());
}
BENCHMARK(BM_OptTrackRmReceive)->Arg(8)->Arg(40);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value = Value{0xabcdef, 128};
  env.write = WriteId{3, 42};
  env.meta.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    dsm::Envelope::Sizes sizes;
    const serial::Bytes bytes = env.encode(serial::ClockWidth::k4Bytes, &sizes);
    const dsm::Envelope back = dsm::Envelope::decode(bytes, serial::ClockWidth::k4Bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_EnvelopeRoundTrip)->Arg(64)->Arg(6400);

// The pooled encode path used by SiteRuntime/ReliableTransport: frames are
// acquired from a serial::BufferPool and recycled after the send, so the
// steady state re-encodes into already-sized capacity instead of growing a
// fresh vector per message (test_buffer_pool pins the zero-allocation bound;
// this measures the cycle cost).
void BM_EnvelopePooledEncode(benchmark::State& state) {
  dsm::Envelope env;
  env.kind = MessageKind::kSM;
  env.sender = 3;
  env.var = 17;
  env.value = Value{0xabcdef, 128};
  env.write = WriteId{3, 42};
  env.meta.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  serial::BufferPool pool;
  for (auto _ : state) {
    serial::ByteWriter w(serial::ClockWidth::k4Bytes, pool.acquire());
    env.encode_into(w);
    pool.release(w.take());
    benchmark::DoNotOptimize(pool);
  }
}
BENCHMARK(BM_EnvelopePooledEncode)->Arg(64)->Arg(6400);

// Whole-cluster DES run: 0 = tracing off, 1 = trace sink attached,
// 2 = trace sink + the live telemetry layer (visibility tracker + 100 ms
// time-series sampler, the wiring every traced bench cell gets), 3 =
// Arg(2) plus the critical-path decomposition (LiveConfig::critpath).
// With no sink every instrumentation point is a null-pointer test and no
// sampler events are scheduled, so Arg(0) must land within noise of the
// pre-observability baseline — this is the guard behind "tracing is free
// when disabled" (docs/OBSERVABILITY.md). Arg(2) vs Arg(1) is the cost of
// the live layer on a traced run: the streaming path (an O(1) ring
// push/pop plus a histogram increment per SM) plus one per-site log walk
// per sampler tick, which dominates on this config because ~100 s of
// simulated time holds ~1,000 ticks but only 500 ops. Arg(3) vs Arg(2) is
// the cost of provenance-on: per-segment histogram folds and the bounded
// blocked-on table on top of the same tracker. docs/OBSERVABILITY.md
// records measured numbers for each pair.
void BM_ClusterExecute(benchmark::State& state) {
  dsm::ClusterConfig config;
  config.sites = 5;
  config.variables = 40;
  config.replication = 2;
  config.record_history = false;
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 100;
  const workload::Schedule schedule = workload::generate_schedule(config.sites, wl);
  obs::RingBufferSink sink;
  obs::live::LiveConfig live_config;
  live_config.sites = config.sites;
  live_config.variables = config.variables;
  live_config.sample_interval = 100 * kMillisecond;
  live_config.max_samples = 1 << 20;  // never truncate inside the loop
  obs::live::LiveTelemetry live(live_config);  // built once, outside timing
  obs::live::LiveConfig critpath_config = live_config;
  critpath_config.critpath = true;
  obs::live::LiveTelemetry live_critpath(critpath_config);
  std::size_t ops = 0;
  for (auto _ : state) {
    sink.clear();
    config.trace_sink = state.range(0) == 0 ? nullptr : &sink;
    config.live = state.range(0) == 2   ? &live
                  : state.range(0) == 3 ? &live_critpath
                                        : nullptr;
    dsm::Cluster cluster(config);
    cluster.execute(schedule);
    ops += schedule.total_ops();
    benchmark::DoNotOptimize(cluster.aggregate_message_stats());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ClusterExecute)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Pooled-executor scaling curve: the same whole-cluster run over real
// threads with n sites multiplexed on W workers (0 = hardware
// concurrency). Sweeping sites x workers shows where the shared ready
// queue saturates and how the per-site serialization gates cap speed-up;
// items processed are schedule ops, so ops/s is directly comparable
// across the curve.
void BM_ClusterExecutePooled(benchmark::State& state) {
  dsm::ClusterConfig config;
  config.sites = static_cast<SiteId>(state.range(0));
  config.variables = 40;
  config.replication = 2;
  config.record_history = false;
  config.executor = engine::ExecutorKind::kPooled;
  config.workers = static_cast<unsigned>(state.range(1));
  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.ops_per_site = 40;
  const workload::Schedule schedule = workload::generate_schedule(config.sites, wl);
  dsm::ThreadCluster::Options options;
  options.max_wire_delay_us = 0;
  std::size_t ops = 0;
  for (auto _ : state) {
    dsm::ThreadCluster cluster(config, options);
    cluster.execute(schedule);
    ops += schedule.total_ops();
    benchmark::DoNotOptimize(cluster.aggregate_message_stats());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ClusterExecutePooled)
    ->ArgsProduct({{8, 32, 128}, {1, 4, 0 /* 0 = hardware concurrency */}})
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_at(i, [&fired] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorThroughput);

// One pooled packet through the DES wire with about 300 more in flight —
// geo-des's steady queue depth: a send (latency draw, FIFO clamp, slab
// slot, queue push) plus one step (queue pop, delivery to a handler that
// recycles the bytes).
void BM_SimTransportDeliver(benchmark::State& state) {
  constexpr SiteId kSites = 16;
  sim::Simulator simulator;
  sim::UniformLatency latency(1 * kMillisecond, 5 * kMillisecond);
  net::SimTransport wire(simulator, latency, kSites, 1);
  serial::BufferPool pool;
  struct Recycler final : net::PacketHandler {
    serial::BufferPool* pool = nullptr;
    void on_packet(net::Packet packet) override { pool->release(std::move(packet.bytes)); }
  } sink;
  sink.pool = &pool;
  for (SiteId s = 0; s < kSites; ++s) wire.attach(s, &sink);
  std::uint64_t i = 0;
  const auto send = [&] {
    serial::Bytes bytes = pool.acquire();
    bytes.assign(96, static_cast<std::uint8_t>(i));
    wire.send(static_cast<SiteId>(i % kSites), static_cast<SiteId>((7 * i + 3) % kSites),
              std::move(bytes));
    ++i;
  };
  for (int k = 0; k < 300; ++k) send();
  for (auto _ : state) {
    send();
    simulator.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimTransportDeliver);

// The reliable channel's common case: a DATA frame sent, received in
// order and released, then cumulatively acked. Arg: 0 = go-back-N, 1 =
// selective repeat with adaptive RTO (geo-des's WAN policy).
void BM_ReliableChannelInOrder(benchmark::State& state) {
  net::ReliableConfig config;
  if (state.range(0) == 1) {
    config.arq = net::ArqMode::kSelectiveRepeat;
    config.adaptive_rto = true;
  }
  serial::BufferPool pool;
  net::ReliableChannel sender(config);
  net::ReliableChannel receiver(config);
  sender.set_buffer_pool(&pool);
  receiver.set_buffer_pool(&pool);
  const serial::Bytes payload(96, 0x5C);
  SimTime now = 0;
  for (auto _ : state) {
    serial::Bytes frame = sender.send(payload, now);
    net::ReliableChannel::Ingest data = receiver.on_frame(frame, now + 1);
    pool.release(std::move(frame));
    for (net::ReliableChannel::Released& r : data.released) {
      pool.release(std::move(r.payload));
    }
    const net::ReliableChannel::Ingest ack = sender.on_frame(data.ack, now + 2);
    benchmark::DoNotOptimize(ack.made_progress);
    pool.release(std::move(data.ack));
    now += 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReliableChannelInOrder)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
