// causim-perf — the benchmark every performance or simplicity change is
// judged by: one process runs one workload and prints its end-to-end
// metrics (or, traced, its per-layer ledger).
//
//   causim_perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// --seconds sizes the work: each workload plays a fixed number of ops per
// site that lasts about that long on the reference machine (README.md; the
// open-loop lane's arrivals span it exactly), so both sides of an A/B
// comparison do identical work.
//
// Every layer is measured from outside. The benchmark assembles the same
// stacks dsm::Cluster (discrete-event) and dsm::ThreadCluster (pooled
// threads) build, from their public parts, which gives it two interposition
// points and no edits under src/:
//
//   * the ScheduleDriver dispatch hook — times every client call
//     (SiteRuntime::write/read on the DES lanes, kv::Store::put/get on the
//     KV lanes), stops issuing at a guard deadline, and paces open-loop
//     arrivals;
//   * WireTap, a transparent net::Transport decorator under the whole tower —
//     times every wire send and every handler call up the tower (traced
//     runs only).
//
// Correctness is checked here, not by the caller: each run first plays an
// untimed prefix of its workload with the history recorder on and runs the
// causal checker over it, KV session-guarantee violations fail the run, the
// traced prefix must reproduce the untraced message counts byte for byte on
// the deterministic lanes, and quiescence is verified after every run. The
// last stdout line is one JSON object; exit status 1 means incorrect.
#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "causal/protocol.hpp"
#include "engine/config.hpp"
#include "engine/node_stack.hpp"
#include "engine/pooled_executor.hpp"
#include "engine/schedule_driver.hpp"
#include "kv/store.hpp"
#include "net/sim_transport.hpp"
#include "net/thread_transport.hpp"
#include "net/timer.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "workload/open_loop.hpp"
#include "workload/schedule.hpp"

#ifndef CAUSIM_PERF_BUILD_TYPE
#define CAUSIM_PERF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace causim;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Span ledger: per-thread nesting stacks, so a layer's self time excludes
// the spans nested inside it (a write's self time excludes its wire sends).

enum SpanKind : std::size_t {
  kWriteSpan,    // client write / put call
  kReadSpan,     // client read / get issue
  kRecvSm,       // handler call up the tower, by envelope kind (flat stacks)
  kRecvFm,
  kRecvRm,
  kRecvFrame,    // handler call for a layer frame (stacks with decorators)
  kSendSpan,     // wire send
  kSpanKinds,
};

struct SpanAcc {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// One thread's accumulators. Only its own thread touches it until the run
/// ends; the ledger merges after every thread of the run was joined.
struct LedgerSlot {
  struct Frame {
    std::int64_t start = 0;
    std::int64_t child = 0;
  };
  std::array<SpanAcc, kSpanKinds> acc{};
  std::int64_t top_ns = 0;  // durations of spans with no enclosing span
  std::array<Frame, 16> frames{};
  std::size_t depth = 0;
  std::uint64_t send_bytes = 0;
  std::vector<std::int64_t> transit_ns;
};

struct LedgerTotals {
  std::array<SpanAcc, kSpanKinds> acc{};
  std::int64_t top_ns = 0;
  std::uint64_t send_bytes = 0;
  std::vector<std::int64_t> transit_ns;

  std::int64_t self_sum() const {
    std::int64_t sum = 0;
    for (const SpanAcc& a : acc) sum += a.self_ns;
    return sum;
  }
};

class Ledger {
 public:
  /// This thread's slot, registered on first use. The thread-local cache is
  /// keyed by a process-unique ledger id, so a later ledger never reuses a
  /// slot that belonged to an earlier (destroyed) one.
  LedgerSlot& slot() {
    thread_local std::uint64_t cached_id = 0;
    thread_local LedgerSlot* cached = nullptr;
    if (cached_id == id_) return *cached;
    std::lock_guard lock(mutex_);
    slots_.push_back(std::make_unique<LedgerSlot>());
    cached_id = id_;
    cached = slots_.back().get();
    return *cached;
  }

  LedgerTotals totals() const {
    std::lock_guard lock(mutex_);
    LedgerTotals t;
    for (const auto& s : slots_) {
      for (std::size_t k = 0; k < kSpanKinds; ++k) {
        t.acc[k].count += s->acc[k].count;
        t.acc[k].total_ns += s->acc[k].total_ns;
        t.acc[k].self_ns += s->acc[k].self_ns;
      }
      t.top_ns += s->top_ns;
      t.send_bytes += s->send_bytes;
      t.transit_ns.insert(t.transit_ns.end(), s->transit_ns.begin(),
                          s->transit_ns.end());
    }
    return t;
  }

 private:
  static inline std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_ = next_id_.fetch_add(1);
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LedgerSlot>> slots_;
};

/// RAII span; a null ledger makes it free (untraced runs).
class SpanScope {
 public:
  SpanScope(Ledger* ledger, SpanKind kind)
      : slot_(ledger != nullptr ? &ledger->slot() : nullptr), kind_(kind) {
    if (slot_ == nullptr) return;
    if (slot_->depth == slot_->frames.size()) {
      std::cerr << "causim-perf: span nesting deeper than "
                << slot_->frames.size() << "\n";
      std::abort();
    }
    slot_->frames[slot_->depth++] = {now_ns(), 0};
  }
  ~SpanScope() {
    if (slot_ == nullptr) return;
    const std::int64_t end = now_ns();
    const LedgerSlot::Frame f = slot_->frames[--slot_->depth];
    const std::int64_t dur = end - f.start;
    SpanAcc& a = slot_->acc[kind_];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - f.child;
    if (slot_->depth > 0) {
      slot_->frames[slot_->depth - 1].child += dur;
    } else {
      slot_->top_ns += dur;
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  LedgerSlot* slot_;
  SpanKind kind_;
};

// ---------------------------------------------------------------------------
// WireTap — a transparent decorator at the bottom wire. Everything the
// stack sends reaches the substrate through send(); everything delivered
// reaches the tower through the per-site Up handler. On the thread lanes it
// also pairs each delivery with its send (per-channel FIFO order, checked
// against the transport's channel sequence numbers) for the transit time.

class WireTap final : public net::Transport {
 public:
  /// `transit`: record send->delivery times (real-thread substrates only;
  /// DES transit is simulated time).
  WireTap(net::Transport& inner, Ledger& ledger, bool transit)
      : inner_(inner),
        ledger_(ledger),
        transit_(transit),
        ups_(inner.size()),
        channels_(static_cast<std::size_t>(inner.size()) * inner.size()) {}

  /// The sites talk to the tap directly (no decorator in between), so the
  /// first byte of every frame is an envelope kind.
  void set_flat(bool flat) { flat_ = flat; }

  void attach(SiteId site, net::PacketHandler* handler) override {
    ups_[site].tap = this;
    ups_[site].up = handler;
    inner_.attach(site, &ups_[site]);
  }

  void send(SiteId from, SiteId to, serial::Bytes bytes) override {
    SpanScope span(&ledger_, kSendSpan);
    ledger_.slot().send_bytes += bytes.size();
    if (!transit_) {
      inner_.send(from, to, std::move(bytes));
      return;
    }
    // The channel lock spans the inner send, so timestamps enter the queue
    // in exactly the order the transport numbers the channel's packets.
    Channel& ch = channels_[channel(from, to)];
    std::lock_guard lock(ch.mutex);
    ch.sent_ns.push_back(now_ns());
    inner_.send(from, to, std::move(bytes));
  }

  SiteId size() const override { return inner_.size(); }
  std::uint64_t packets_sent() const override { return inner_.packets_sent(); }
  std::uint64_t packets_delivered() const override { return inner_.packets_delivered(); }
  void set_trace_sink(obs::TraceSink* sink) override { inner_.set_trace_sink(sink); }

  /// Deliveries whose channel sequence number did not match the tap's own
  /// send order (must stay 0: the decorator is transparent).
  std::uint64_t misordered() const { return misordered_.load(); }

 private:
  struct Up final : net::PacketHandler {
    WireTap* tap = nullptr;
    net::PacketHandler* up = nullptr;
    void on_packet(net::Packet packet) override { tap->deliver(*up, std::move(packet)); }
  };
  struct Channel {
    std::mutex mutex;
    std::deque<std::int64_t> sent_ns;
    std::uint64_t delivered = 0;
  };

  std::size_t channel(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from) * ups_.size() + to;
  }

  SpanKind kind_of(const net::Packet& packet) const {
    if (!flat_ || packet.bytes.empty()) return kRecvFrame;
    switch (packet.bytes[0]) {
      case static_cast<std::uint8_t>(MessageKind::kSM): return kRecvSm;
      case static_cast<std::uint8_t>(MessageKind::kFM): return kRecvFm;
      case static_cast<std::uint8_t>(MessageKind::kRM): return kRecvRm;
      default: return kRecvFrame;
    }
  }

  void deliver(net::PacketHandler& up, net::Packet packet) {
    if (transit_) {
      const std::int64_t now = now_ns();
      Channel& ch = channels_[channel(packet.from, packet.to)];
      std::int64_t sent = now;
      {
        std::lock_guard lock(ch.mutex);
        if (!ch.sent_ns.empty()) {
          sent = ch.sent_ns.front();
          ch.sent_ns.pop_front();
        }
        if (packet.seq != ch.delivered++) misordered_.fetch_add(1);
      }
      ledger_.slot().transit_ns.push_back(now - sent);
    }
    SpanScope span(&ledger_, kind_of(packet));
    up.on_packet(std::move(packet));
  }

  net::Transport& inner_;
  Ledger& ledger_;
  const bool transit_;
  bool flat_ = false;
  std::vector<Up> ups_;
  std::vector<Channel> channels_;
  std::atomic<std::uint64_t> misordered_{0};
};

// ---------------------------------------------------------------------------
// Pacer — the open-loop generator's single thread: issues each parked op at
// its intended arrival instant. It sleeps rather than spins: spinning cut
// median lateness but inflated the tail by stealing a core from the system.

class Pacer {
 public:
  Pacer() : thread_([this] { loop(); }) {}
  ~Pacer() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  void submit(std::int64_t due_ns, std::function<void()> fn) {
    {
      std::lock_guard lock(mutex_);
      heap_.push_back({due_ns, next_seq_++, std::move(fn)});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    cv_.notify_one();
  }

 private:
  struct Item {
    std::int64_t due = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  void loop() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      if (heap_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const std::int64_t due = heap_.front().due;
      if (now_ns() < due) {
        cv_.wait_until(lock, Clock::time_point(std::chrono::nanoseconds(due)));
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Item item = std::move(heap_.back());
      heap_.pop_back();
      lock.unlock();
      item.fn();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Item> heap_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts after everything it touches exists
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Lane : std::uint8_t {
  kDes,     // deterministic discrete-event stack, closed schedule
  kKvSat,   // pooled threads, closed loop (one client per site)
  kKvPaced  // pooled threads, open loop at a fixed total rate
};

struct Spec {
  const char* name = "";
  Lane lane = Lane::kDes;
  engine::EngineConfig config;
  workload::WorkloadParams schedule;  // kDes
  workload::OpenLoopParams open;      // KV lanes
  /// Ops per site for each second of --seconds: every lane plays a fixed
  /// amount of work sized to last about that long on the reference machine
  /// (the paced lane's arrivals span it exactly).
  double ops_per_second = 0.0;
};

causal::ProtocolOptions wide_clocks() {
  // 8-byte clock entries: the paper benches' JDK-footprint convention.
  causal::ProtocolOptions options;
  options.clock_width = serial::ClockWidth::k8Bytes;
  return options;
}

Spec make_spec(const std::string& name) {
  Spec spec;
  if (name == "paper-des") {
    // The paper's evaluation point (§V): Opt-Track, n = 40, p = 0.3n, q =
    // 100, w_rate = 0.5, 5-2005 ms think time, 5-150 ms channel latency —
    // and at 15 s, the paper's 600 ops/site. Protocol work dominates.
    spec.name = "paper-des";
    spec.config.sites = 40;
    spec.config.replication = 12;
    spec.config.protocol = causal::ProtocolKind::kOptTrack;
    spec.schedule.write_rate = 0.5;
    spec.ops_per_second = 40;
  } else if (name == "geo-des") {
    // Two cells of 8 behind a 20 ms one-way WAN that drops 2%: the fault
    // injector, selective-repeat ARQ, batching and gateway mailboxes carry
    // most of the cost, not the (tiny, d~2) protocol metadata.
    spec.name = "geo-des";
    spec.config.sites = 16;
    spec.config.replication = 0;
    spec.config.protocol = causal::ProtocolKind::kOptTrackCrp;
    topo::LinkProfile intra;  // 1-5 ms LAN
    topo::LinkProfile inter;
    inter.latency_lo = inter.latency_hi = 20 * kMillisecond;
    inter.faults.drop_rate = 0.02;
    net::ReliableConfig wan;
    wan.arq = net::ArqMode::kSelectiveRepeat;
    wan.adaptive_rto = true;
    wan.rto_initial = 100 * kMillisecond;
    wan.rto_min = 50 * kMillisecond;
    inter.reliable = wan;
    spec.config.topology = topo::Topology::blocks(16, 2, intra, inter);
    spec.config.batch.enabled = true;
    spec.config.gateway.enabled = true;
    spec.config.gateway.max_delay = 10 * kMillisecond;
    spec.schedule.write_rate = 0.8;
    spec.schedule.gap_lo = 1 * kMillisecond;
    spec.schedule.gap_hi = 10 * kMillisecond;
    spec.ops_per_second = 3000;
  } else if (name == "kv-sat" || name == "kv-paced") {
    // The pooled KV service: 8 sites on 2 workers, p = 2, a million keys
    // under Zipf(0.99), 4 sessions per site, read-heavy.
    spec.name = name == "kv-sat" ? "kv-sat" : "kv-paced";
    spec.lane = name == "kv-sat" ? Lane::kKvSat : Lane::kKvPaced;
    spec.config.sites = 8;
    spec.config.replication = 2;
    spec.config.protocol = causal::ProtocolKind::kOptTrack;
    spec.config.executor = engine::ExecutorKind::kPooled;
    spec.config.workers = 2;
    spec.open.keys = 1'000'000;
    spec.open.zipf_s = 0.99;
    spec.open.write_rate = 0.2;
    spec.open.sessions_per_site = 4;
    spec.open.payload_lo = 64;
    spec.open.payload_hi = 512;
    if (spec.lane == Lane::kKvSat) {
      // Closed loop: the pooled executor ignores arrival times and issues
      // each site's next op as soon as the previous one completed.
      spec.open.rate_ops_per_sec = 1e6;
      spec.ops_per_second = 12000;
    } else {
      // Open loop at 20,000 ops/s in total — about a fifth of saturation,
      // where idle wake-ups rather than throughput set the latency.
      spec.open.rate_ops_per_sec = 2500;
      spec.ops_per_second = 2500;
    }
  } else {
    return spec;  // name stays empty: unknown workload
  }
  spec.config.variables = 100;
  spec.config.protocol_options = wide_clocks();
  spec.schedule.variables = spec.config.variables;
  return spec;
}

// ---------------------------------------------------------------------------
// One assembled system under test.

/// Per-site client bookkeeping. Every field is touched only by whichever
/// thread currently owns the site's single outstanding op; the executor's
/// completion gate and ready-queue mutex (or the pacer's queue mutex) order
/// each hand-over, so no lock is needed here.
struct SiteBook {
  std::vector<std::int64_t> get_ns;
  std::vector<std::int64_t> put_ns;
  std::vector<std::int64_t> handoff_ns;
  std::vector<std::int64_t> late_ns;
  std::int64_t first_done = kNever;
  std::int64_t last_done = -1;
  std::int64_t remote_done_at = 0;  // last remote get's completion, until the next dispatch
  std::uint64_t issued = 0;
  std::uint64_t skipped = 0;  // not issued: the guard deadline had passed
  std::uint64_t completed = 0;
  std::uint64_t recorded_done = 0;
  std::uint64_t gets = 0;
  std::uint64_t remote_gets = 0;
  std::size_t cursor = 0;  // next KeyOp (KV lanes)
};

struct RunResult {
  double wall_s = 0.0;
  std::vector<std::int64_t> get_ns;
  std::vector<std::int64_t> put_ns;
  std::vector<std::int64_t> handoff_ns;
  std::vector<std::int64_t> late_ns;
  std::uint64_t issued = 0;
  std::uint64_t skipped = 0;
  std::uint64_t completed = 0;
  std::uint64_t recorded_done = 0;
  std::uint64_t gets = 0;
  std::uint64_t remote_gets = 0;
  double span_s = 0.0;  // first to last recorded completion

  stats::MessageStats messages;
  stats::Summary log_entries;
  stats::Summary apply_delay_us;
  stats::Summary fetch_latency_us;
  std::uint64_t applies = 0;
  std::uint64_t buffered = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t batch_frames = 0;
  std::uint64_t batch_messages = 0;
  std::uint64_t gateway_frames = 0;
  std::uint64_t gateway_messages = 0;
  std::uint64_t reliable_frames = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t drops = 0;
  kv::SessionStats sessions;

  LedgerTotals spans;  // traced runs only
  std::uint64_t misordered = 0;
  std::vector<std::string> violations;  // causal checker (history runs only)
};

class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, std::size_t ops_per_site, bool traced,
        bool history)
      : spec_(spec), books_(spec.config.sites) {
    engine::EngineConfig config = spec.config;
    config.seed = seed;
    config.record_history = history;
    if (traced) ledger_ = std::make_unique<Ledger>();

    if (spec.lane == Lane::kDes) {
      workload::WorkloadParams wl = spec.schedule;
      wl.ops_per_site = ops_per_site;
      wl.seed = seed;
      schedule_ = workload::generate_schedule(config.sites, wl);
    } else {
      workload::OpenLoopParams wl = spec.open;
      wl.ops_per_site = ops_per_site;
      wl.seed = seed;
      map_ = std::make_unique<kv::KeyMap>(config.variables);
      workload::OpenLoopWorkload open = workload::generate_open_loop(
          config.sites, wl, [this](std::uint64_t key) { return map_->var_of(key); });
      schedule_ = std::move(open.schedule);
      keys_ = std::move(open.per_site);
    }
    for (SiteBook& b : books_) {
      b.get_ns.reserve(ops_per_site);
      b.put_ns.reserve(ops_per_site);
    }

    // The substrate edges dsm::Cluster / dsm::ThreadCluster would supply.
    engine::NodeStack::Wiring wiring;
    if (spec.lane == Lane::kDes) {
      simulator_ = std::make_unique<sim::Simulator>();
      latency_ = config.topology.enabled()
                     ? config.topology.make_latency_model(config.sites)
                     : std::make_shared<sim::UniformLatency>(config.latency_lo,
                                                             config.latency_hi);
      wire_ = std::make_unique<net::SimTransport>(*simulator_, *latency_, config.sites,
                                                  config.seed);
      wiring.make_timer = [this] {
        return std::make_unique<net::SimTimerDriver>(*simulator_);
      };
      wiring.now_fn = [this] { return simulator_->now(); };
    } else {
      net::ThreadTransport::Options topt;
      topt.max_delay_us = 0;  // measure the wire path, not injected sleeps
      topt.seed = config.seed;
      auto threads = std::make_unique<net::ThreadTransport>(config.sites, topt);
      threads_ = threads.get();
      wire_ = std::move(threads);
      wiring.make_timer = [] { return std::make_unique<net::ThreadTimerDriver>(); };
    }
    wiring.wire = wire_.get();
    if (traced) {
      tap_ = std::make_unique<WireTap>(*wire_, *ledger_,
                                       /*transit=*/spec.lane != Lane::kDes);
      wiring.wire = tap_.get();
    }
    stack_ = std::make_unique<engine::NodeStack>(config, std::move(wiring));
    if (tap_ != nullptr) tap_->set_flat(&stack_->edge() == tap_.get());
    if (spec.lane == Lane::kDes) {
      executor_ = std::make_unique<engine::SimExecutor>(*stack_, *simulator_);
    } else {
      engine::PooledExecutor::Options popt;
      popt.workers = config.workers;
      executor_ = std::make_unique<engine::PooledExecutor>(*stack_, *threads_, popt);
      kv::StoreConfig store;
      store.map = *map_;
      store_ = std::make_unique<kv::Store>(*stack_, store);
      sessions_.resize(config.sites);
      for (SiteId s = 0; s < config.sites; ++s) {
        for (std::uint32_t c = 0; c < spec.open.sessions_per_site; ++c) {
          sessions_[s].push_back(&store_->open_session(s));
        }
      }
    }
    driver_ = std::make_unique<engine::ScheduleDriver>(*stack_, *executor_);
    driver_->set_dispatch_hook(
        [this](SiteId s, const workload::Op& op, std::function<void()> done) {
          dispatch(s, op, std::move(done));
        });
  }

  ~Bench() {
    pacer_.reset();
    if (executor_ != nullptr) executor_->abort();
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Plays the whole schedule, then drains and verifies quiescence. Ops
  /// falling due after `guard_seconds` (negative = none) are skipped, so a
  /// pathologically slow build still ends in bounded time.
  RunResult run(double guard_seconds) {
    if (spec_.lane == Lane::kKvPaced) pacer_ = std::make_unique<Pacer>();
    start_ns_ = now_ns();
    deadline_ns_ = guard_seconds < 0
                       ? kNever
                       : start_ns_ + static_cast<std::int64_t>(guard_seconds * 1e9);
    driver_->execute(schedule_);
    RunResult r;
    r.wall_s = static_cast<double>(now_ns() - start_ns_) / 1e9;
    pacer_.reset();
    collect(r);
    return r;
  }

 private:
  void dispatch(SiteId s, const workload::Op& op, std::function<void()> done) {
    SiteBook& b = books_[s];
    const std::int64_t now = now_ns();
    const std::size_t key_index = b.cursor++;
    if (b.remote_done_at != 0) {
      // Executor handoff: a remote get completed on a receipt thread and
      // the site waited for a pool worker to dispatch its next op.
      if (op.record) b.handoff_ns.push_back(now - b.remote_done_at);
      b.remote_done_at = 0;
    }
    if (spec_.lane == Lane::kKvPaced) {
      const std::int64_t intended = start_ns_ + static_cast<std::int64_t>(op.at) * 1000;
      if (intended >= deadline_ns_) {
        ++b.skipped;
        done();
        return;
      }
      const std::int64_t due = std::max(intended, now);
      pacer_->submit(due, [this, s, &op, key_index, intended, due,
                           done = std::move(done)]() mutable {
        const std::int64_t issue = now_ns();
        if (op.record) books_[s].late_ns.push_back(issue - due);
        // Latency counts from the intended arrival, so a site still busy
        // with its previous op cannot hide the queueing (coordinated
        // omission).
        issue_kv(s, op, key_index, intended, std::move(done));
      });
      return;
    }
    if (now >= deadline_ns_) {
      ++b.skipped;
      done();
      return;
    }
    if (spec_.lane == Lane::kDes) {
      issue_des(s, op, now, std::move(done));
    } else {
      issue_kv(s, op, key_index, now, std::move(done));
    }
  }

  /// DES client call: its wall-clock cost is the op's latency sample (the
  /// simulated wait of a remote read costs no wall time).
  void issue_des(SiteId s, const workload::Op& op, std::int64_t start,
                 std::function<void()> done) {
    SiteBook& b = books_[s];
    dsm::SiteRuntime& site = stack_->site(s);
    ++b.issued;
    if (op.kind == workload::Op::Kind::kWrite) {
      {
        SpanScope span(ledger_.get(), kWriteSpan);
        site.write(op.var, op.payload_bytes, op.record);
      }
      const std::int64_t end = now_ns();
      if (op.record) b.put_ns.push_back(end - start);
      note_done(b, op.record, end);
      done();
      return;
    }
    {
      SpanScope span(ledger_.get(), kReadSpan);
      site.read(
          op.var,
          [&b, record = op.record, done = std::move(done)](Value, WriteId) {
            note_done(b, record, now_ns());
            done();
          },
          op.record);
    }
    if (op.record) b.get_ns.push_back(now_ns() - start);
  }

  /// KV client call through the session layer; latency is completion minus
  /// `start` (dispatch instant closed-loop, intended arrival open-loop).
  void issue_kv(SiteId s, const workload::Op& op, std::size_t key_index,
                std::int64_t start, std::function<void()> done) {
    SiteBook& b = books_[s];
    const workload::KeyOp& ko = keys_[s][key_index];
    kv::Session& session = *sessions_[s][ko.session];
    ++b.issued;
    if (op.kind == workload::Op::Kind::kWrite) {
      {
        SpanScope span(ledger_.get(), kWriteSpan);
        store_->put(session, ko.key, op.payload_bytes, op.record);
      }
      const std::int64_t end = now_ns();
      if (op.record) b.put_ns.push_back(end - start);
      note_done(b, op.record, end);
      done();
      return;
    }
    ++b.gets;
    const std::thread::id issuer = std::this_thread::get_id();
    SpanScope span(ledger_.get(), kReadSpan);
    store_->get(session, ko.key, op.record,
                [&b, issuer, start, record = op.record,
                 done = std::move(done)](const kv::GetResult&) {
                  const std::int64_t end = now_ns();
                  // A local get completes inline on the issuing thread; a
                  // remote one on the receipt thread that got the RM.
                  if (std::this_thread::get_id() != issuer) {
                    ++b.remote_gets;
                    b.remote_done_at = end;
                  }
                  if (record) b.get_ns.push_back(end - start);
                  note_done(b, record, end);
                  done();
                });
  }

  static void note_done(SiteBook& b, bool record, std::int64_t at) {
    ++b.completed;
    if (!record) return;
    ++b.recorded_done;
    b.first_done = std::min(b.first_done, at);
    b.last_done = std::max(b.last_done, at);
  }

  void collect(RunResult& r) {
    std::int64_t first = kNever;
    std::int64_t last = -1;
    for (SiteBook& b : books_) {
      r.get_ns.insert(r.get_ns.end(), b.get_ns.begin(), b.get_ns.end());
      r.put_ns.insert(r.put_ns.end(), b.put_ns.begin(), b.put_ns.end());
      r.handoff_ns.insert(r.handoff_ns.end(), b.handoff_ns.begin(), b.handoff_ns.end());
      r.late_ns.insert(r.late_ns.end(), b.late_ns.begin(), b.late_ns.end());
      r.issued += b.issued;
      r.skipped += b.skipped;
      r.completed += b.completed;
      r.recorded_done += b.recorded_done;
      r.gets += b.gets;
      r.remote_gets += b.remote_gets;
      first = std::min(first, b.first_done);
      last = std::max(last, b.last_done);
    }
    if (last > first) r.span_s = static_cast<double>(last - first) / 1e9;

    const engine::NodeStack& stack = *stack_;
    r.messages = stack.aggregate_message_stats();
    r.log_entries = stack.aggregate_log_entries();
    r.apply_delay_us = stack.aggregate_apply_delay();
    r.fetch_latency_us = stack.aggregate_fetch_latency();
    obs::MetricsRegistry registry;
    stack.export_metrics(registry);
    r.applies = registry.counter("apply.total").value();
    r.buffered = registry.counter("apply.buffered").value();
    r.wire_frames = wire_->packets_sent();
    if (const net::BatchingTransport* batching = stack_->batching()) {
      r.batch_frames = batching->frames_sent();
      r.batch_messages = batching->messages_batched();
    }
    if (const net::GatewayMailbox* gateway = stack_->gateway()) {
      r.gateway_frames = gateway->mailbox_frames();
      r.gateway_messages = gateway->mailbox_messages();
    }
    if (const net::ReliableTransport* reliable = stack.reliable()) {
      r.reliable_frames = reliable->frames_sent();
      r.retransmits = reliable->retransmits();
      r.acks = reliable->acks_sent();
    }
    if (const faults::FaultInjector* injector = stack.injector()) {
      r.drops = injector->drops();
    }
    if (store_ != nullptr) r.sessions = store_->aggregate_stats();
    if (ledger_ != nullptr) {
      r.spans = ledger_->totals();
      r.misordered = tap_->misordered();
    }
    if (stack.config().record_history) r.violations = stack.check().violations;
  }

  const Spec& spec_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<kv::KeyMap> map_;
  workload::Schedule schedule_;
  std::vector<std::vector<workload::KeyOp>> keys_;
  std::vector<SiteBook> books_;

  // Assembly order; destruction runs in reverse (the destructor first
  // stops the pacer and the executor's threads).
  std::unique_ptr<sim::Simulator> simulator_;
  std::shared_ptr<const sim::LatencyModel> latency_;
  std::unique_ptr<net::Transport> wire_;
  net::ThreadTransport* threads_ = nullptr;
  std::unique_ptr<WireTap> tap_;
  std::unique_ptr<engine::NodeStack> stack_;
  std::unique_ptr<engine::Executor> executor_;
  std::unique_ptr<engine::ScheduleDriver> driver_;
  std::unique_ptr<kv::Store> store_;
  std::vector<std::vector<kv::Session*>> sessions_;
  std::unique_ptr<Pacer> pacer_;

  std::int64_t start_ns_ = 0;
  std::int64_t deadline_ns_ = kNever;
};

// ---------------------------------------------------------------------------
// Reporting.

/// Exact nearest-rank quantile over raw samples sorted ascending: the
/// library's log-scale histogram has ~15% bucket error, wider than the
/// benchmark's bounds.
struct Quantile {
  double value = 0.0;
  std::size_t count = 0;   // samples
  std::size_t beyond = 0;  // samples strictly above the quantile's rank
};

Quantile quantile(const std::vector<std::int64_t>& sorted, double q, double scale) {
  Quantile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= 1 && static_cast<double>(rank) == q * static_cast<double>(sorted.size())) {
    --rank;  // exact multiple: nearest rank is the rank-th sample (1-based)
  }
  rank = std::min(rank, sorted.size() - 1);
  out.value = static_cast<double>(sorted[rank]) * scale;
  out.beyond = sorted.size() - rank - 1;
  return out;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::cout << workload_ << ' ' << name << ' ' << number(value) << ' ' << unit;
    if (!note.empty()) std::cout << "  # " << note;
    std::cout << '\n';
    metrics_.push_back({name, value, unit});
  }
  void add(const std::string& name, const Quantile& q, const std::string& unit) {
    add(name, q.value, unit,
        "n=" + std::to_string(q.count) + " beyond=" + std::to_string(q.beyond));
  }

  /// The result line: `keys` selects which metrics the JSON carries.
  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                   const std::vector<std::string>& keys) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const std::string& key : keys) {
      for (const Metric& m : metrics_) {
        if (m.name != key) continue;
        out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
            << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
        break;
      }
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
};

// The metric sets BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {"setup_s", "ops_per_s", "get_p50_us", "peak_rss_mb",
                                            "meta_bytes_per_msg"};
const std::vector<std::string> kPerLayer = {
    "dsm.write_ns",          "dsm.write_self_ns",   "dsm.read_ns",
    "dsm.recv_self_ns",      "net.send_ns",         "causal.log_entries_mean",
    "causal.meta_bytes_per_sm", "net.frames_per_op",
    "net.wire_bytes_per_op", "trace.overhead_pct"};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Fixed integer work, timed: the same binary reports a longer calib_ms
/// when the machine is slower, so drift between result sets is visible
/// instead of being read as a regression.
double calibrate_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const std::int64_t t1 = now_ns();
  if (x == 0) std::cout << "# calibration degenerate\n";  // keeps the loop live
  return static_cast<double>(t1 - t0) / 1e6;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string git_sha = "none";
  std::string src_sha = "none";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "causim_perf: " << error << "\n"
            << "usage: causim_perf --workload paper-des|geo-des|kv-sat|kv-paced "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--git-sha X] [--src-sha X]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--git-sha") {
        o.git_sha = value();
      } else if (arg == "--src-sha") {
        o.src_sha = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds must be in (0, 600]");
  if (o.smoke) o.seconds = std::min(o.seconds, 1.0);
  return o;
}

/// Per-kind message counts and bytes, for the traced-vs-untraced identity.
bool same_traffic(const RunResult& a, const RunResult& b) {
  for (const MessageKind kind : kAllMessageKinds) {
    const stats::SizeBreakdown& x = a.messages.of(kind);
    const stats::SizeBreakdown& y = b.messages.of(kind);
    if (x.count != y.count || x.header_bytes != y.header_bytes ||
        x.meta_bytes != y.meta_bytes || x.payload_bytes != y.payload_bytes) {
      return false;
    }
  }
  return a.wire_frames == b.wire_frames;
}

double mean_ns(const LedgerTotals& t, SpanKind k, bool self) {
  const SpanAcc& a = t.acc[k];
  return ratio(static_cast<double>(self ? a.self_ns : a.total_ns),
               static_cast<double>(a.count));
}

void report_per_layer(Report& rep, const Spec& spec, const RunResult& r,
                      double overhead_pct, std::vector<std::string>& failures) {
  const LedgerTotals& t = r.spans;
  rep.add("dsm.write_ns", mean_ns(t, kWriteSpan, false), "ns");
  rep.add("dsm.write_self_ns", mean_ns(t, kWriteSpan, true), "ns");
  rep.add("dsm.read_ns", mean_ns(t, kReadSpan, false), "ns");
  std::uint64_t recv_count = 0;
  std::int64_t recv_self = 0;
  for (const SpanKind k : {kRecvSm, kRecvFm, kRecvRm, kRecvFrame}) {
    recv_count += t.acc[k].count;
    recv_self += t.acc[k].self_ns;
  }
  rep.add("dsm.recv_self_ns",
          ratio(static_cast<double>(recv_self), static_cast<double>(recv_count)), "ns");
  // The per-kind split exists only on flat stacks (elsewhere every
  // delivery is a layer frame).
  const std::pair<SpanKind, const char*> kinds[] = {
      {kRecvSm, "dsm.recv_sm_self_ns"},
      {kRecvFm, "dsm.recv_fm_self_ns"},
      {kRecvRm, "dsm.recv_rm_self_ns"}};
  for (const auto& [k, name] : kinds) {
    if (t.acc[k].count > 0) rep.add(name, mean_ns(t, k, true), "ns");
  }
  rep.add("net.send_ns", mean_ns(t, kSendSpan, false), "ns");

  const stats::SizeBreakdown& sm = r.messages.of(MessageKind::kSM);
  const stats::SizeBreakdown& rm = r.messages.of(MessageKind::kRM);
  rep.add("causal.log_entries_mean", r.log_entries.mean(), "count");
  rep.add("causal.meta_bytes_per_sm", sm.avg_meta(), "B");
  if (rm.count > 0) rep.add("causal.meta_bytes_per_rm", rm.avg_meta(), "B");
  rep.add("causal.buffered_ratio",
          ratio(static_cast<double>(r.buffered), static_cast<double>(r.applies)),
          "ratio");

  const double ops = static_cast<double>(r.issued);
  rep.add("net.frames_per_op", ratio(static_cast<double>(r.wire_frames), ops), "count");
  rep.add("net.wire_bytes_per_op", ratio(static_cast<double>(t.send_bytes), ops), "B");
  if (r.batch_frames > 0) {
    rep.add("net.batch_msgs_per_frame",
            ratio(static_cast<double>(r.batch_messages),
                  static_cast<double>(r.batch_frames)),
            "count");
  }
  if (r.gateway_frames > 0) {
    rep.add("net.gateway_msgs_per_frame",
            ratio(static_cast<double>(r.gateway_messages),
                  static_cast<double>(r.gateway_frames)),
            "count");
  }
  if (r.reliable_frames > 0) {
    const double frames = static_cast<double>(r.reliable_frames);
    rep.add("net.retransmits_per_frame", ratio(static_cast<double>(r.retransmits), frames),
            "ratio");
    rep.add("net.acks_per_frame", ratio(static_cast<double>(r.acks), frames), "ratio");
  }
  if (r.drops > 0) {
    // Frames offered to the injector: the ones it dropped plus the ones the
    // wire carried. A workload property; it must not move.
    rep.add("faults.drops_per_frame",
            ratio(static_cast<double>(r.drops),
                  static_cast<double>(r.drops + r.wire_frames)),
            "ratio");
  }

  if (spec.lane == Lane::kDes) {
    rep.add("dsm.apply_delay_mean_ms", r.apply_delay_us.mean() / 1000.0, "ms");
    // Single-threaded DES: every top-level span plus the unattributed
    // remainder (event loop, timers, latency draws, harness) tiles the
    // wall time exactly.
    const double attributed = static_cast<double>(t.self_sum()) / 1e9;
    const double unattributed = r.wall_s - attributed;
    rep.add("sim.wall_s", r.wall_s, "s");
    rep.add("sim.unattributed_s", unattributed, "s");
    if (t.self_sum() != t.top_ns || unattributed < -0.01 * r.wall_s) {
      failures.push_back("span ledger does not tile the DES wall time");
    }
  } else {
    std::vector<std::int64_t> transit = t.transit_ns;
    std::sort(transit.begin(), transit.end());
    rep.add("net.transit_p50_us", quantile(transit, 0.50, 1e-3), "us");
    rep.add("net.transit_p99_us", quantile(transit, 0.99, 1e-3), "us");
    std::vector<std::int64_t> handoff = r.handoff_ns;
    std::sort(handoff.begin(), handoff.end());
    rep.add("engine.handoff_p50_us", quantile(handoff, 0.50, 1e-3), "us");
    rep.add("engine.handoff_p99_us", quantile(handoff, 0.99, 1e-3), "us");
    // The client calls on these lanes are kv::Store::put/get, so the
    // dsm.write_ns / dsm.read_ns spans above are the KV layer's put and
    // get-issue costs.
    const double gets = static_cast<double>(r.sessions.gets);
    rep.add("kv.remote_get_ratio", ratio(static_cast<double>(r.remote_gets),
                                         static_cast<double>(r.gets)),
            "ratio");
    rep.add("kv.retries_per_get", ratio(static_cast<double>(r.sessions.retries), gets),
            "ratio");
    rep.add("kv.stale_per_get",
            ratio(static_cast<double>(r.sessions.stale_observations), gets), "ratio");
    if (r.misordered != 0) {
      failures.push_back("wire tap saw " + std::to_string(r.misordered) +
                         " deliveries out of channel order");
    }
  }
  if (spec.lane == Lane::kKvPaced) {
    std::vector<std::int64_t> late = r.late_ns;
    std::sort(late.begin(), late.end());
    rep.add("gen.late_p50_us", quantile(late, 0.50, 1e-3), "us");
    rep.add("gen.late_p99_us", quantile(late, 0.99, 1e-3), "us");
  }
  rep.add("trace.overhead_pct", overhead_pct, "%");
}

/// The cost the tracing overhead is judged on: time per op for the
/// closed loops, median get latency for the open loop (its throughput is
/// the offered rate either way).
double client_cost(const Spec& spec, RunResult& r) {
  if (spec.lane == Lane::kKvPaced) {
    std::sort(r.get_ns.begin(), r.get_ns.end());
    return quantile(r.get_ns, 0.50, 1.0).value;
  }
  return ratio(r.span_s, static_cast<double>(r.recorded_done));
}

std::size_t ops_per_site(const Spec& spec, double seconds) {
  return static_cast<std::size_t>(spec.ops_per_second * seconds + 0.5);
}

/// Multiple of --seconds after which a run stops issuing: far beyond any
/// normal run, and still inside the caller's per-process time limit.
constexpr double kGuardFactor = 6.0;

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Spec spec = make_spec(opt.workload);
  if (spec.name[0] == '\0') usage("unknown workload " + opt.workload);
  Report rep(spec.name);

  std::cout << "# fingerprint nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" compiler=\"" << __VERSION__
            << "\" build_type=" << CAUSIM_PERF_BUILD_TYPE << " git_sha=" << opt.git_sha
            << " src_sha=" << opt.src_sha << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << (opt.smoke ? " smoke=1" : "") << "\n";
  rep.add("calib_ms", calibrate_ms(), "ms");

  std::vector<std::string> failures;
  const std::size_t ops = ops_per_site(spec, opt.seconds);

  // Correctness prefix (untimed): ~2% of the workload with the history
  // recorder on, played to completion and run through the causal checker.
  // On the deterministic lanes the traced replay must reproduce it exactly.
  const std::size_t prefix_ops = std::max<std::size_t>(12, ops / 50);
  {
    Bench plain(spec, opt.seed, prefix_ops, /*traced=*/false, /*history=*/true);
    const RunResult base = plain.run(-1.0);
    for (const std::string& v : base.violations) failures.push_back("causal: " + v);
    if (base.sessions.violations != 0) {
      failures.push_back(std::to_string(base.sessions.violations) +
                         " session-guarantee violations in the prefix");
    }
    if (spec.lane == Lane::kDes) {
      Bench traced(spec, opt.seed, prefix_ops, /*traced=*/true, /*history=*/true);
      if (!same_traffic(base, traced.run(-1.0))) {
        failures.push_back("traced prefix changed the message counts or bytes");
      }
    }
  }

  RunResult r;
  if (!opt.trace) {
    // Set-up is repeated (at least 3 times and for about a second, so the
    // millisecond-scale assemblies get enough samples) and its median
    // reported, so work moved into set-up shows. The last assembly is the
    // one measured.
    std::vector<double> setups;
    std::unique_ptr<Bench> bench;
    double setup_total = 0.0;
    while (setups.empty() ||
           (!opt.smoke && setups.size() < 100 && (setups.size() < 3 || setup_total < 1.0))) {
      bench.reset();
      const std::int64_t t0 = now_ns();
      bench = std::make_unique<Bench>(spec, opt.seed, ops, false, false);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      setup_total += setups.back();
    }
    r = bench->run(kGuardFactor * opt.seconds);
    bench.reset();

    rep.add("setup_s", median(setups), "s", "median of " + std::to_string(setups.size()));
    rep.add("ops_per_s", ratio(static_cast<double>(r.recorded_done), r.span_s), "ops/s",
            "n=" + std::to_string(r.recorded_done));
    std::sort(r.get_ns.begin(), r.get_ns.end());
    std::sort(r.put_ns.begin(), r.put_ns.end());
    rep.add("get_p50_us", quantile(r.get_ns, 0.50, 1e-3), "us");
    // Reported, not gated (see README.md, "Noise on the reference machine").
    rep.add("client.put_p50_us", quantile(r.put_ns, 0.50, 1e-3), "us");
    rep.add("client.get_p90_us", quantile(r.get_ns, 0.90, 1e-3), "us");
    rep.add("client.get_p99_us", quantile(r.get_ns, 0.99, 1e-3), "us");
    rep.add("client.get_p999_us", quantile(r.get_ns, 0.999, 1e-3), "us");
    const stats::SizeBreakdown total = r.messages.total();
    rep.add("meta_bytes_per_msg",
            ratio(static_cast<double>(total.meta_bytes), static_cast<double>(total.count)),
            "B");
    if (spec.lane == Lane::kDes && r.fetch_latency_us.count() > 0) {
      rep.add("sim_fetch_mean_ms", r.fetch_latency_us.mean() / 1000.0, "ms");
    }
  } else {
    // Traced pass: the workload at half length untraced, then the same
    // inputs traced on a fresh assembly; the difference is the tracing
    // overhead.
    const std::size_t half = ops_per_site(spec, opt.seconds / 2);
    const double guard = kGuardFactor * opt.seconds / 2;
    RunResult untraced = Bench(spec, opt.seed, half, false, false).run(guard);
    r = Bench(spec, opt.seed, half, true, false).run(guard);
    const double overhead =
        100.0 * (ratio(client_cost(spec, r), client_cost(spec, untraced)) - 1.0);
    report_per_layer(rep, spec, r, overhead, failures);
  }

  const std::uint64_t never_completed = r.issued - std::min(r.issued, r.completed);
  const std::uint64_t failed = r.sessions.violations + never_completed;
  if (r.sessions.violations != 0) {
    failures.push_back(std::to_string(r.sessions.violations) +
                       " session-guarantee violations");
  }
  if (never_completed != 0) {
    failures.push_back(std::to_string(never_completed) + " ops never completed");
  }
  if (r.recorded_done == 0) failures.push_back("no recorded op completed");
  if (r.skipped != 0) {
    std::cout << "# warning: guard deadline hit, " << r.skipped
              << " ops not issued; results cover partial work\n";
  }
  rep.add("error_rate", ratio(static_cast<double>(failed), static_cast<double>(r.issued)),
          "ratio");
  if (!opt.trace) rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  const bool correct = failures.empty();
  for (const std::string& f : failures) std::cerr << spec.name << ": FAIL: " << f << "\n";
  std::cout << rep.json(correct, std::max<std::uint64_t>(r.issued, 1), failed,
                        opt.trace ? kPerLayer : kEndToEnd)
            << std::endl;
  return correct ? 0 : 1;
}
