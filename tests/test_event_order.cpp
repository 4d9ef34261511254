// Pins the discrete-event order across commits.
//
// tests/test_determinism.cpp compares two runs of one binary, so an event
// core that consistently reorders same-time events would still pass it.
// Here every trace event of a seeded run is folded into an FNV-1a hash of
// (type, site, peer, ts, dur, a, b, c, d), and the hash is compared with a
// value recorded from an earlier build: any change to the (time, seq)
// order, the fault sequence, the ARQ timing or the protocol's decisions
// moves it. A deliberate change to any of those must re-record the
// constants below (and say why in the commit).
//
// The second half holds sim::Simulator to a reference (time, seq) model:
// thousands of events with colliding times, actions that schedule more
// events from inside a running action, and slots that are reused.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "dsm/cluster.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

// ---- golden trace hashes ----

/// Folds every event into one FNV-1a hash, field by field, little-endian.
class HashSink final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& e) override {
    mix(static_cast<std::uint64_t>(e.type), 1);
    mix(e.site, 2);
    mix(e.peer, 2);
    mix(static_cast<std::uint64_t>(e.ts), 8);
    mix(static_cast<std::uint64_t>(e.dur), 8);
    mix(e.a, 8);
    mix(e.b, 8);
    mix(e.c, 8);
    mix(e.d, 8);
    ++events_;
  }

  std::uint64_t hash() const { return hash_; }
  std::uint64_t events() const { return events_; }

 private:
  void mix(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }

  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
  std::uint64_t events_ = 0;
};

struct Golden {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
};

Golden traced_run(dsm::ClusterConfig config, const workload::WorkloadParams& wl) {
  HashSink sink;
  config.trace_sink = &sink;
  dsm::Cluster cluster(config);
  cluster.execute(workload::generate_schedule(config.sites, wl));
  EXPECT_TRUE(cluster.check().ok());
  return Golden{sink.hash(), sink.events()};
}

TEST(EventOrderGolden, GeoOptTrackCrpRunIsPinned) {
  // Two cells of four behind a lossy WAN: the fault injector's draws,
  // selective-repeat ARQ with adaptive RTO, batching and the gateway
  // mailbox all feed the event order.
  dsm::ClusterConfig config;
  config.sites = 8;
  config.variables = 16;
  config.protocol = causal::ProtocolKind::kOptTrackCrp;
  config.seed = 7;
  topo::LinkProfile intra;
  topo::LinkProfile inter;
  inter.latency_lo = inter.latency_hi = 20 * kMillisecond;
  inter.faults.drop_rate = 0.02;
  net::ReliableConfig wan;
  wan.arq = net::ArqMode::kSelectiveRepeat;
  wan.adaptive_rto = true;
  wan.rto_initial = 100 * kMillisecond;
  wan.rto_min = 50 * kMillisecond;
  inter.reliable = wan;
  config.topology = topo::Topology::blocks(config.sites, 2, intra, inter);
  config.batch.enabled = true;
  config.gateway.enabled = true;
  config.gateway.max_delay = 10 * kMillisecond;

  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.write_rate = 0.8;
  wl.gap_lo = 1 * kMillisecond;
  wl.gap_hi = 10 * kMillisecond;
  wl.ops_per_site = 150;
  wl.seed = 7;

  const Golden g = traced_run(config, wl);
  EXPECT_EQ(g.events, 32663u);
  EXPECT_EQ(g.hash, 2635613803646091603u);
}

TEST(EventOrderGolden, PartialReplicationOptTrackRunIsPinned) {
  dsm::ClusterConfig config;
  config.sites = 8;
  config.variables = 24;
  config.replication = 3;
  config.protocol = causal::ProtocolKind::kOptTrack;
  config.seed = 11;

  workload::WorkloadParams wl;
  wl.variables = config.variables;
  wl.write_rate = 0.5;
  wl.ops_per_site = 120;
  wl.seed = 11;

  const Golden g = traced_run(config, wl);
  EXPECT_EQ(g.events, 9825u);
  EXPECT_EQ(g.hash, 17332626041172852108u);
}

// ---- Simulator against a reference (time, seq) model ----

/// The order the simulator promises, kept the obvious way: a std::map
/// keyed by (time, seq), where seq counts schedule_at calls.
class ReferenceQueue {
 public:
  void schedule_at(SimTime t, int id) { queue_.emplace(std::make_pair(t, next_seq_++), id); }
  bool empty() const { return queue_.empty(); }
  std::pair<SimTime, int> pop() {
    const auto it = queue_.begin();
    const std::pair<SimTime, int> out{it->first.first, it->second};
    queue_.erase(it);
    return out;
  }

 private:
  std::map<std::pair<SimTime, std::uint64_t>, int> queue_;
  std::uint64_t next_seq_ = 0;
};

TEST(SimulatorDifferential, ExecutionOrderMatchesTheTimeSeqModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Pcg32 rng(seed, 0x6f72646572ULL);
    sim::Simulator simulator;
    ReferenceQueue reference;
    std::vector<std::pair<SimTime, int>> ran;
    int next_id = 0;

    // Every action may schedule children at now + small delays (0
    // included, so same-time children land behind queued peers); the
    // reference model is driven with exactly the same calls.
    std::function<void(int)> fire;
    const auto schedule = [&](SimTime t) {
      const int id = next_id++;
      reference.schedule_at(t, id);
      simulator.schedule_at(t, [&fire, id] { fire(id); });
    };
    fire = [&](int id) {
      ran.emplace_back(simulator.now(), id);
      if (next_id >= 6000) return;
      const std::int64_t children = rng.uniform_int(0, 2);
      for (std::int64_t c = 0; c < children; ++c) {
        schedule(simulator.now() + rng.uniform_int(0, 4));
      }
    };

    // Colliding start times: 400 roots over 16 instants.
    for (int i = 0; i < 400; ++i) schedule(rng.uniform_int(0, 15));
    // Drain in two phases, so slots freed by the first phase are reused
    // by events scheduled in the second.
    simulator.run_until(20);
    for (int i = 0; i < 400; ++i) schedule(simulator.now() + rng.uniform_int(0, 15));
    simulator.run();

    std::vector<std::pair<SimTime, int>> expected;
    while (!reference.empty()) expected.push_back(reference.pop());
    ASSERT_GE(ran.size(), 2000u) << "seed " << seed;
    EXPECT_EQ(ran, expected) << "seed " << seed;
    EXPECT_EQ(simulator.executed(), ran.size());
    EXPECT_TRUE(simulator.idle());
  }
}

}  // namespace
}  // namespace causim
