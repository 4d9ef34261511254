// Concurrency harness for engine::PooledExecutor — the sharded worker
// pool that multiplexes N sites over W workers.
//
// Three families of pressure:
//   * randomized stress: sites >> workers, seeded schedules, the fault
//     stack injecting drops/dups/delay/pauses underneath, coalescing on
//     for half the seeds — every seed must drain, quiesce, and pass the
//     causal checker (seed count scales with CAUSIM_POOL_SEEDS, default
//     50; CI's PR lane sets a short value, the TSan lane the full one),
//   * shutdown races: abort() fired from another thread at arbitrary
//     points of a live play(), including after natural completion and
//     repeatedly — the invoker gates, the flush timers and the pool
//     workers must all tear down without deadlock or leaks (this is the
//     test TSan chews on),
//   * parked sites keep receiving: two sites blocked on each other's
//     remote reads at once still answer each other's FMs, even when one
//     worker serves both,
//   * steady-state resource sanity: the coalescing path keeps recycling
//     frames through the shared serial::BufferPool.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "bench_support/experiment.hpp"
#include "dsm/thread_cluster.hpp"
#include "engine/pooled_executor.hpp"
#include "engine/schedule_driver.hpp"
#include "net/thread_transport.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

int seed_count() {
  if (const char* env = std::getenv("CAUSIM_POOL_SEEDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 50;
}

constexpr std::array<causal::ProtocolKind, 4> kProtocols = {
    causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
    causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP};

workload::Schedule schedule_for(SiteId n, std::uint64_t seed,
                                std::size_t ops) {
  workload::WorkloadParams wl;
  wl.variables = 16;
  wl.write_rate = 0.5;
  wl.ops_per_site = ops;
  wl.seed = seed;
  return workload::generate_schedule(n, wl);
}

/// One stress cell: the protocol rotates with the seed, 12 sites share
/// 1–3 workers (at 1, a single worker serves every op and every
/// delivery), odd seeds coalesce, and two thirds of the seeds run over a
/// faulty wire with a short real-time RTO so retransmission actually
/// interleaves with pool scheduling. The width cycles with period 5, so it
/// meets every other axis within a few seeds.
dsm::ClusterConfig stress_config(std::uint64_t seed) {
  const causal::ProtocolKind kind = kProtocols[seed % kProtocols.size()];
  dsm::ClusterConfig config;
  config.sites = 12;
  config.variables = 16;
  config.replication = causal::requires_full_replication(kind) ? 0 : 4;
  config.protocol = kind;
  config.seed = seed;
  config.record_history = true;
  config.executor = engine::ExecutorKind::kPooled;
  config.workers = 1 + static_cast<unsigned>(seed % 5 % 3);
  if (seed % 2 == 1) {
    config.batch.enabled = true;
    config.batch.max_messages = 8;
    config.batch.max_delay = 2 * kMillisecond;  // real time on this path
  }
  if (seed % 3 != 0) {
    config.fault_plan.default_faults.drop_rate = 0.05;
    config.fault_plan.default_faults.dup_rate = 0.05;
    config.fault_plan.default_faults.extra_delay_max = 500;  // µs, reorders
    // A short partition of a rotating site right at startup.
    config.fault_plan.pauses.push_back(faults::PauseWindow{
        static_cast<SiteId>(seed % config.sites), 0, 2 * kMillisecond});
    config.reliable_config.rto_initial = 20 * kMillisecond;
    config.reliable_config.rto_min = 10 * kMillisecond;
    config.reliable_config.adaptive_rto = seed % 2 == 1;
    if (seed % 4 == 1) {
      config.reliable_config.arq = net::ArqMode::kSelectiveRepeat;
    }
  }
  return config;
}

TEST(PooledExecutorStress, SeededScheduleMatrixStaysCausal) {
  const int seeds = seed_count();
  for (int s = 1; s <= seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const dsm::ClusterConfig config = stress_config(seed);
    dsm::ThreadCluster::Options options;
    options.max_wire_delay_us = s % 3 == 0 ? 300 : 0;
    dsm::ThreadCluster cluster(config, options);
    cluster.execute(schedule_for(config.sites, seed, 16));

    const auto result = cluster.check();
    ASSERT_TRUE(result.ok())
        << to_string(config.protocol) << " seed " << s << ": "
        << (result.violations.empty() ? "" : result.violations.front());
    if (config.batch.enabled) {
      ASSERT_NE(cluster.stack().batching(), nullptr);
      EXPECT_TRUE(cluster.stack().batching()->quiescent()) << "seed " << s;
      EXPECT_EQ(cluster.stack().batching()->malformed(), 0u) << "seed " << s;
    }
  }
}

// ---------------------------------------------------------------------------

/// Hand-assembled stack (the pieces dsm::ThreadCluster wires) so the test
/// can call play() and abort() itself instead of going through
/// ScheduleDriver::execute's play-drain-finish-verify sequence.
struct RacingStack {
  explicit RacingStack(const dsm::ClusterConfig& config, unsigned workers) {
    net::ThreadTransport::Options topt;
    topt.max_delay_us = 200;
    topt.seed = config.seed;
    transport = std::make_unique<net::ThreadTransport>(config.sites, topt);
    engine::NodeStack::Wiring wiring;
    wiring.wire = transport.get();
    wiring.make_timer = [] { return std::make_unique<net::ThreadTimerDriver>(); };
    stack = std::make_unique<engine::NodeStack>(config, std::move(wiring));
    engine::PooledExecutor::Options popt;
    popt.workers = workers;
    executor = std::make_unique<engine::PooledExecutor>(*stack, *transport, popt);
    driver = std::make_unique<engine::ScheduleDriver>(*stack, *executor);
  }

  std::unique_ptr<net::ThreadTransport> transport;
  std::unique_ptr<engine::NodeStack> stack;
  std::unique_ptr<engine::PooledExecutor> executor;
  std::unique_ptr<engine::ScheduleDriver> driver;
};

dsm::ClusterConfig race_config(std::uint64_t seed, bool batch) {
  dsm::ClusterConfig config;
  config.sites = 8;
  config.variables = 16;
  config.replication = 3;
  config.protocol = causal::ProtocolKind::kOptTrack;
  config.seed = seed;
  config.record_history = false;
  config.executor = engine::ExecutorKind::kPooled;
  config.workers = 2;
  if (batch) {
    config.batch.enabled = true;
    config.batch.max_messages = 4;
    config.batch.max_delay = kMillisecond;
  }
  return config;
}

TEST(PooledExecutorShutdown, AbortRacesLivePlay) {
  // Sweep the abort point from "before any op ran" to "after the run
  // completed on its own": every landing spot must tear down cleanly, and
  // a second abort() must be a no-op.
  for (int i = 0; i < 14; ++i) {
    RacingStack rig(race_config(static_cast<std::uint64_t>(i), i % 2 == 1),
                    /*workers=*/2);
    const auto schedule =
        schedule_for(8, static_cast<std::uint64_t>(i) + 100, 40);
    std::thread runner(
        [&] { rig.executor->play(*rig.driver, schedule); });
    std::this_thread::sleep_for(std::chrono::microseconds(350 * i));
    rig.executor->abort();
    runner.join();
    rig.executor->abort();  // idempotent after teardown
  }
}

TEST(PooledExecutorShutdown, AbortWithoutPlayIsANoOp) {
  RacingStack rig(race_config(99, true), /*workers=*/3);
  rig.executor->abort();
  rig.executor->abort();
}

TEST(PooledExecutorShutdown, QuiesceAfterAbortedRunAllowsFreshRun) {
  // An aborted run leaves the stack referenced by nothing (all threads
  // joined) — destroying it and running a fresh full cluster afterwards
  // must behave exactly like a first run.
  {
    RacingStack rig(race_config(7, true), /*workers=*/2);
    const auto schedule = schedule_for(8, 7, 40);
    std::thread runner([&] { rig.executor->play(*rig.driver, schedule); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rig.executor->abort();
    runner.join();
  }
  dsm::ThreadCluster cluster(race_config(7, true));
  cluster.execute(schedule_for(8, 7, 40));
  ASSERT_NE(cluster.stack().batching(), nullptr);
  EXPECT_TRUE(cluster.stack().batching()->quiescent());
}

// ---------------------------------------------------------------------------

TEST(PooledExecutor, ResolvesHardwareWorkerCount) {
  RacingStack rig(race_config(1, false), /*workers=*/0);
  EXPECT_GE(rig.executor->workers(), 1u);
}

/// Two sites whose every read targets the variable only the other one
/// replicates: both park on a remote read at once, and each must still
/// answer the other's FM. At W = 1 the lone worker serves both sites; a
/// pool that stopped delivering to a parked site would hang here.
TEST(PooledExecutor, CrossedRemoteReadsBothComplete) {
  constexpr std::size_t kRounds = 40;
  for (const unsigned workers : {1u, 2u}) {
    dsm::ClusterConfig config;
    config.sites = 2;
    config.variables = 2;
    config.replication = 1;
    config.placement_strategy = dsm::PlacementStrategy::kStrided;
    config.protocol = causal::ProtocolKind::kOptTrack;
    config.seed = 3;
    config.executor = engine::ExecutorKind::kPooled;
    config.workers = workers;
    workload::Schedule schedule;
    schedule.per_site.resize(config.sites);
    for (SiteId s = 0; s < config.sites; ++s) {
      for (std::size_t k = 0; k < kRounds; ++k) {
        workload::Op read;
        read.kind = workload::Op::Kind::kRead;
        read.var = 1 - s;
        workload::Op write;
        write.kind = workload::Op::Kind::kWrite;
        write.var = s;
        schedule.per_site[s].push_back(read);
        schedule.per_site[s].push_back(write);
      }
    }
    dsm::ThreadCluster cluster(config);
    for (SiteId s = 0; s < config.sites; ++s) {
      ASSERT_TRUE(cluster.placement().replicated_at(s, s));
      ASSERT_FALSE(cluster.placement().replicated_at(1 - s, s));
    }
    cluster.execute(schedule);

    const auto stats = cluster.aggregate_message_stats();
    EXPECT_EQ(stats.of(MessageKind::kFM).count, 2 * kRounds) << "W=" << workers;
    EXPECT_EQ(stats.of(MessageKind::kRM).count, 2 * kRounds) << "W=" << workers;
    EXPECT_TRUE(cluster.check().ok()) << "W=" << workers;
  }
}

TEST(PooledExecutor, CoalescingPathRecyclesPooledFrames) {
  dsm::ClusterConfig config = race_config(11, true);
  dsm::ThreadCluster cluster(config);
  cluster.execute(schedule_for(8, 11, 60));
  const auto& pool = cluster.stack().buffer_pool();
  EXPECT_GT(pool.reuses(), 0u);
  EXPECT_GT(pool.reuses(), pool.misses());
  ASSERT_NE(cluster.stack().batching(), nullptr);
  EXPECT_GT(cluster.stack().batching()->frames_sent(), 0u);
  // Coalescing means strictly fewer frames than messages.
  EXPECT_LT(cluster.stack().batching()->frames_sent(),
            cluster.stack().batching()->messages_batched());
  EXPECT_EQ(cluster.stack().batching()->malformed(), 0u);
}

}  // namespace
}  // namespace causim
