// GatewayMailbox routing (causim::net) and the cross-DC causal-conformance
// matrix: all four protocols over {2, 3} cells with WAN drops underneath the
// gateway must stay causally consistent and send exactly the per-kind
// messages of the gateway-off run of the same seed (the mailbox batches the
// wire, never the protocol), under the DES and under the pooled thread
// executor. The mailbox framing itself is exercised by test_coalescer.cpp,
// its wire bytes and malformed-input handling by test_coalescing_wire.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dsm/cluster.hpp"
#include "dsm/thread_cluster.hpp"
#include "net/gateway_mailbox.hpp"
#include "topo/topology.hpp"
#include "workload/schedule.hpp"

namespace causim {
namespace {

// ---- conformance matrix: gateway on vs off, DES ----

constexpr std::array<causal::ProtocolKind, 4> kProtocols = {
    causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
    causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP};

topo::Topology geo_topology(SiteId sites, std::size_t cells, double wan_drop) {
  topo::LinkProfile intra;
  topo::LinkProfile inter;
  inter.latency_lo = inter.latency_hi = 40 * kMillisecond;
  inter.faults.drop_rate = wan_drop;
  return topo::Topology::blocks(sites, cells, intra, inter);
}

workload::Schedule schedule_for(SiteId n, std::uint64_t seed) {
  workload::WorkloadParams wl;
  wl.variables = 12;
  wl.write_rate = 0.5;
  wl.ops_per_site = 30;
  wl.seed = seed;
  return workload::generate_schedule(n, wl);
}

struct Outcome {
  std::array<std::uint64_t, kAllMessageKinds.size()> counts{};
  bool causal_ok = false;
  std::uint64_t mailbox_frames = 0;
  std::uint64_t mailbox_messages = 0;
  std::uint64_t enroute = 0;
  std::uint64_t malformed = 0;
};

Outcome run_geo(causal::ProtocolKind protocol, std::size_t cells,
                bool gateway_on, double wan_drop, std::uint64_t seed) {
  dsm::ClusterConfig config;
  config.sites = 6;
  config.variables = 12;
  config.replication = causal::requires_full_replication(protocol) ? 0 : 2;
  config.protocol = protocol;
  config.seed = seed;
  config.record_history = true;
  config.topology = geo_topology(config.sites, cells, wan_drop);
  config.gateway.enabled = gateway_on;
  config.gateway.max_messages = 4;
  config.gateway.max_delay = 5 * kMillisecond;
  dsm::Cluster cluster(config);
  cluster.execute(schedule_for(config.sites, seed));

  Outcome outcome;
  const stats::MessageStats stats = cluster.aggregate_message_stats();
  for (const MessageKind kind : kAllMessageKinds) {
    outcome.counts[static_cast<std::size_t>(kind)] = stats.of(kind).count;
  }
  outcome.causal_ok = cluster.check().ok();
  const net::GatewayMailbox* gw = cluster.stack().gateway();
  EXPECT_NE(gw, nullptr);
  if (gw != nullptr) {
    EXPECT_TRUE(gw->quiescent());
    outcome.mailbox_frames = gw->mailbox_frames();
    outcome.mailbox_messages = gw->mailbox_messages();
    outcome.enroute = gw->enroute_messages();
    outcome.malformed = gw->malformed();
  }
  return outcome;
}

class GatewayConformance
    : public ::testing::TestWithParam<causal::ProtocolKind> {};

TEST_P(GatewayConformance, MatrixStaysCausalWithUnchangedCounts) {
  const causal::ProtocolKind protocol = GetParam();
  std::uint64_t total_frames = 0;
  std::uint64_t total_enroute = 0;
  for (const std::size_t cells : {std::size_t{2}, std::size_t{3}}) {
    for (const double wan_drop : {0.0, 0.2}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Outcome off = run_geo(protocol, cells, false, wan_drop, seed);
        const Outcome on = run_geo(protocol, cells, true, wan_drop, seed);
        const std::string ctx = std::string(to_string(protocol)) + " cells=" +
                                std::to_string(cells) + " drop=" +
                                std::to_string(wan_drop) + " seed=" +
                                std::to_string(seed);
        EXPECT_TRUE(off.causal_ok) << ctx << ": violation with gateway off";
        EXPECT_TRUE(on.causal_ok) << ctx << ": violation with gateway on";
        EXPECT_EQ(on.malformed, 0u) << ctx;
        EXPECT_EQ(off.malformed, 0u) << ctx;
        for (const MessageKind kind : kAllMessageKinds) {
          EXPECT_EQ(on.counts[static_cast<std::size_t>(kind)],
                    off.counts[static_cast<std::size_t>(kind)])
              << ctx << ": " << to_string(kind)
              << " count changed — the mailbox must batch the wire, not the"
                 " protocol";
        }
        EXPECT_EQ(off.mailbox_frames, 0u) << ctx;
        total_frames += on.mailbox_frames;
        total_enroute += on.enroute;
      }
    }
  }
  // The matrix is vacuous if no mailbox ever shipped or no sender ever
  // needed the enroute hop.
  EXPECT_GT(total_frames, 0u);
  EXPECT_GT(total_enroute, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, GatewayConformance,
    ::testing::Values(causal::ProtocolKind::kFullTrack,
                      causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp,
                      causal::ProtocolKind::kOptP),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---- the pooled thread lane drains the gateway under real concurrency ----

TEST(GatewayThreads, PooledExecutorDrainsGatewayAndStaysCausal) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    dsm::ClusterConfig config;
    config.sites = 8;
    config.variables = 12;
    config.replication = 3;
    config.protocol = causal::ProtocolKind::kOptTrack;
    config.seed = seed;
    config.record_history = true;
    config.executor = engine::ExecutorKind::kPooled;
    config.workers = 3;
    config.topology = geo_topology(config.sites, 2, 0.0);
    config.gateway.enabled = true;
    config.gateway.max_messages = 4;
    config.gateway.max_delay = 2 * kMillisecond;  // real time on this path
    dsm::ThreadCluster cluster(config);
    cluster.execute(schedule_for(config.sites, seed));

    const auto result = cluster.check();
    ASSERT_TRUE(result.ok())
        << "seed " << seed << ": "
        << (result.violations.empty() ? "" : result.violations.front());
    const net::GatewayMailbox* gw = cluster.stack().gateway();
    ASSERT_NE(gw, nullptr);
    EXPECT_TRUE(gw->quiescent());
    EXPECT_EQ(gw->malformed(), 0u);
    EXPECT_GT(gw->mailbox_frames(), 0u);
  }
}

// Batching below the gateway: the enroute hop and the mailbox frames ride
// the 0xB4 coalescing layer without confusing either framing.
TEST(GatewayThreads, GatewayStacksOnBatchingTransport) {
  dsm::ClusterConfig config;
  config.sites = 6;
  config.variables = 12;
  config.replication = 2;
  config.protocol = causal::ProtocolKind::kOptTrack;
  config.seed = 9;
  config.record_history = true;
  config.executor = engine::ExecutorKind::kPooled;
  config.workers = 2;
  config.batch.enabled = true;
  config.batch.max_messages = 8;
  config.batch.max_delay = 2 * kMillisecond;
  config.topology = geo_topology(config.sites, 2, 0.0);
  config.gateway.enabled = true;
  config.gateway.max_messages = 4;
  config.gateway.max_delay = 2 * kMillisecond;
  dsm::ThreadCluster cluster(config);
  cluster.execute(schedule_for(config.sites, 9));
  ASSERT_TRUE(cluster.check().ok());
  ASSERT_NE(cluster.stack().gateway(), nullptr);
  ASSERT_NE(cluster.stack().batching(), nullptr);
  EXPECT_EQ(cluster.stack().gateway()->malformed(), 0u);
  EXPECT_GT(cluster.stack().gateway()->mailbox_frames(), 0u);
  EXPECT_GT(cluster.stack().batching()->frames_sent(), 0u);
}

}  // namespace
}  // namespace causim
