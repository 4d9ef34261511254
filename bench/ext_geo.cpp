// Extension — geo-replication: two-level topology, WAN links, gateway
// mailboxes (causim::topo + net::GatewayMailbox).
//
// The paper's testbed is one flat LAN: every site pair shares a single
// latency range, so its visibility numbers say nothing about the regime
// causal consistency is actually deployed in — a handful of datacenters
// with millisecond LANs inside and 10–100 ms WAN one-way delays between
// them (PaRiS, Okapi). With sites grouped into cells and per-scope link
// profiles we can measure what the flat testbed hides:
//
//   1. WAN RTT sweep — Opt-Track over 2 cells, RTT 20/80/200 ms: update
//      visibility splits cleanly by link scope. Same-cell visibility stays
//      at LAN cost while cross-cell visibility tracks the WAN one-way
//      delay, and causally chained cross-DC updates pay it repeatedly
//      (apply delay grows faster than the RTT alone).
//   2. Protocol matrix × cell count — all four protocols over 2 and 3
//      cells at a fixed 80 ms RTT stay causally consistent; the protocols'
//      relative meta-data ordering is topology-invariant.
//   3. Asymmetric placement — 10 sites split 6/3/1 with a slower uplink
//      toward the smallest cell (pair override, 120 ms vs 40 ms one-way):
//      the lonely cell's replicas dominate the visibility tail.
//   4. Gateway mailbox A/B (enforced, exit 1 on regression): under a
//      loaded schedule (1–10 ms op gaps instead of the paper's 5–2005 ms
//      think time) cross-DC mailbox coalescing must cut WAN frame counts
//      at least 2× at *identical* per-kind application message counts —
//      the gateway batches the wire, never the protocol — with
//      checker-clean histories on both sides of the A/B.
//
// Topology/gateway activity lands in msg.{lan,wan}.* / net.gateway.*
// metrics and the bench.v1 "topology" block — never in the paper's msg.*
// byte accounting.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_support/experiment.hpp"
#include "bench_support/observability.hpp"
#include "obs/trace_sink.hpp"
#include "stats/table.hpp"
#include "topo/topology.hpp"

namespace {

using namespace causim;

/// Pairs each SM's kSend with its kActivated at the destination (matched
/// on the packed WriteId provenance argument) and buckets the visibility
/// latency by link scope: LAN when sender and destination share a cell,
/// WAN otherwise. DES-only — emit() is not thread-safe.
class VisibilitySink final : public obs::TraceSink {
 public:
  explicit VisibilitySink(std::vector<std::uint16_t> cell_of)
      : cell_of_(std::move(cell_of)) {}

  void emit(const obs::TraceEvent& e) override {
    if (e.type == obs::TraceEventType::kSend && e.kind == MessageKind::kSM &&
        e.c != 0) {
      send_[key(e.c, e.peer)] = {e.ts, e.site};
      return;
    }
    if (e.type == obs::TraceEventType::kActivated && e.c != 0) {
      const auto it = send_.find(key(e.c, e.site));
      if (it == send_.end()) return;  // local apply at the writer
      const bool wan = cell_of_[it->second.from] != cell_of_[e.site];
      (wan ? wan_ : lan_).push_back(static_cast<double>(e.ts - it->second.ts));
      send_.erase(it);  // quiescence drains the map between seeds
    }
  }

  double mean_ms(bool wan) const {
    const auto& v = wan ? wan_ : lan_;
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size()) / 1000.0;
  }

  double p99_ms(bool wan) const {
    std::vector<double> v = wan ? wan_ : lan_;
    if (v.empty()) return 0.0;
    const std::size_t i = std::min(v.size() - 1, (v.size() * 99) / 100);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
    return v[i] / 1000.0;
  }

  std::size_t samples(bool wan) const { return (wan ? wan_ : lan_).size(); }

 private:
  struct Send {
    SimTime ts = 0;
    SiteId from = kInvalidSite;
  };
  /// (packed WriteId, destination) — unique per run; packed ids stay below
  /// 2^48, so shifting in the 16-bit site is lossless.
  static std::uint64_t key(std::uint64_t packed, SiteId dest) {
    return (packed << 16) | dest;
  }

  std::vector<std::uint16_t> cell_of_;
  std::unordered_map<std::uint64_t, Send> send_;
  std::vector<double> lan_;
  std::vector<double> wan_;
};

topo::Topology two_level(SiteId sites, std::size_t cells, SimTime one_way_us) {
  topo::LinkProfile intra;  // defaults: 1–5 ms LAN
  topo::LinkProfile inter;
  inter.latency_lo = inter.latency_hi = one_way_us;
  return topo::Topology::blocks(sites, cells, intra, inter);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace causim;
  const auto options = bench_support::parse_bench_args(argc, argv);
  bench_support::Observability observability(options, "ext_geo");
  if (!observability.ok()) return 1;

  const causal::ProtocolKind protocols[] = {
      causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP};

  // Claim the shared --trace-out sink up front and spend it on the first
  // gateway=on A/B cell below: that is the only cell whose trace carries
  // gateway_forward events, which is what the CI schema gate reads.
  obs::TraceSink* shared_sink = observability.claim_trace_sink();

  // ---- 1. WAN RTT sweep: visibility splits by link scope ----
  stats::Table sweep(
      "1. WAN RTT sweep — Opt-Track, n = 8 in 2 cells, p = 3: same-cell "
      "visibility stays at LAN cost; cross-cell tracks the WAN delay");
  sweep.set_columns({"rtt ms", "lan msgs", "wan msgs", "lan vis ms",
                     "lan p99 ms", "wan vis ms", "wan p99 ms",
                     "apply delay ms", "fetch ms"});
  const long rtts_ms[] = {20, 80, 200};
  for (const long rtt : rtts_ms) {
    bench_support::ExperimentParams params;
    params.protocol = causal::ProtocolKind::kOptTrack;
    params.sites = 8;
    params.replication = bench_support::partial_replication_factor(8);
    params.write_rate = 0.5;
    params.ops_per_site = 300;
    bench_support::apply_quick(params, options);
    params.topology = two_level(params.sites, 2, rtt * kMillisecond / 2);
    VisibilitySink vis(params.topology.routing(params.sites).cell_of);
    params.trace_sink = &vis;
    const std::string label = "sweep rtt=" + std::to_string(rtt) + "ms";
    const auto r = observability.run_cell(label, params);
    sweep.add_row({stats::Table::integer(static_cast<std::uint64_t>(rtt)),
                   stats::Table::integer(r.lan_messages),
                   stats::Table::integer(r.wan_messages),
                   stats::Table::num(vis.mean_ms(false), 1),
                   stats::Table::num(vis.p99_ms(false), 1),
                   stats::Table::num(vis.mean_ms(true), 1),
                   stats::Table::num(vis.p99_ms(true), 1),
                   stats::Table::num(r.apply_delay_us.mean() / 1000.0, 1),
                   stats::Table::num(r.fetch_latency_us.mean() / 1000.0, 1)});
  }
  std::cout << sweep << "\n";
  if (options.csv) std::cout << "CSV:\n" << sweep.to_csv() << "\n";

  // ---- 2. Protocol matrix × cell count ----
  stats::Table matrix(
      "2. Protocol matrix at 80 ms RTT — every protocol stays causally "
      "consistent over 2 and 3 cells; meta ordering is topology-invariant");
  matrix.set_columns({"protocol", "cells", "p", "causal", "lan msgs",
                      "wan msgs", "meta B/msg"});
  for (const std::size_t cells : {std::size_t{2}, std::size_t{3}}) {
    for (const causal::ProtocolKind protocol : protocols) {
      bench_support::ExperimentParams params;
      params.protocol = protocol;
      params.sites = 9;
      params.replication = causal::requires_full_replication(protocol)
                               ? 0
                               : bench_support::partial_replication_factor(9);
      params.write_rate = 0.5;
      params.ops_per_site = options.quick ? 100 : 200;
      params.seeds = options.quick ? std::vector<std::uint64_t>{1}
                                   : std::vector<std::uint64_t>{1, 2, 3};
      params.topology = two_level(params.sites, cells, 40 * kMillisecond);
      params.check = true;
      const std::string label = "matrix " + std::string(to_string(protocol)) +
                                " cells=" + std::to_string(cells);
      const auto r = observability.run_cell(label, params);
      const double meta_per_msg =
          r.stats.total().count == 0
              ? 0.0
              : static_cast<double>(r.stats.total().meta_bytes) /
                    static_cast<double>(r.stats.total().count);
      matrix.add_row({to_string(protocol), std::to_string(cells),
                      std::to_string(params.replication == 0
                                         ? params.sites
                                         : params.replication),
                      r.check_ok ? "ok" : "VIOLATION",
                      stats::Table::integer(r.lan_messages),
                      stats::Table::integer(r.wan_messages),
                      stats::Table::num(meta_per_msg, 1)});
      if (!r.check_ok) {
        std::cerr << "causal violation under " << to_string(protocol) << " at "
                  << cells << " cells: " << r.violations.front() << "\n";
        return 1;
      }
    }
  }
  std::cout << matrix << "\n";
  if (options.csv) std::cout << "CSV:\n" << matrix.to_csv() << "\n";

  // ---- 3. Asymmetric placement ----
  stats::Table asym_table(
      "3. Asymmetric placement — n = 10 split 6/3/1, 40 ms one-way WAN, "
      "120 ms uplink into the 1-site cell: the lonely replica sets the tail");
  asym_table.set_columns({"protocol", "causal", "lan msgs", "wan msgs",
                          "wan vis ms", "wan p99 ms", "apply delay ms",
                          "fetch ms"});
  for (const causal::ProtocolKind protocol : protocols) {
    bench_support::ExperimentParams params;
    params.protocol = protocol;
    params.sites = 10;
    params.replication = causal::requires_full_replication(protocol)
                             ? 0
                             : bench_support::partial_replication_factor(10);
    params.write_rate = 0.5;
    params.ops_per_site = options.quick ? 100 : 200;
    params.seeds = options.quick ? std::vector<std::uint64_t>{1}
                                 : std::vector<std::uint64_t>{1, 2, 3};
    topo::Topology asym;
    asym.cells = {{"us", {0, 1, 2, 3, 4, 5}, kInvalidSite},
                  {"eu", {6, 7, 8}, kInvalidSite},
                  {"ap", {9}, kInvalidSite}};
    asym.inter.latency_lo = asym.inter.latency_hi = 40 * kMillisecond;
    topo::LinkProfile slow = asym.inter;
    slow.latency_lo = slow.latency_hi = 120 * kMillisecond;
    asym.pair_overrides[{0, 2}] = slow;  // us -> ap uplink only
    params.topology = asym;
    params.check = true;
    VisibilitySink vis(params.topology.routing(params.sites).cell_of);
    params.trace_sink = &vis;
    const std::string label = "asym " + std::string(to_string(protocol));
    const auto r = observability.run_cell(label, params);
    asym_table.add_row({to_string(protocol), r.check_ok ? "ok" : "VIOLATION",
                        stats::Table::integer(r.lan_messages),
                        stats::Table::integer(r.wan_messages),
                        stats::Table::num(vis.mean_ms(true), 1),
                        stats::Table::num(vis.p99_ms(true), 1),
                        stats::Table::num(r.apply_delay_us.mean() / 1000.0, 1),
                        stats::Table::num(r.fetch_latency_us.mean() / 1000.0, 1)});
    if (!r.check_ok) {
      std::cerr << "causal violation under " << to_string(protocol)
                << " (asymmetric placement): " << r.violations.front() << "\n";
      return 1;
    }
  }
  std::cout << asym_table << "\n";
  if (options.csv) std::cout << "CSV:\n" << asym_table.to_csv() << "\n";

  // ---- 4. Gateway mailbox A/B (enforced) ----
  stats::Table ab(
      "4. Gateway A/B — loaded schedule (1-10 ms gaps), 2 cells, 80 ms RTT: "
      "mailbox coalescing must cut WAN frames >= 2x at identical per-kind "
      "message counts");
  ab.set_columns({"protocol", "gateway", "causal", "wan frames", "gw frames",
                  "msgs/frame", "SM", "FM", "RM"});
  bool ab_ok = true;
  for (const causal::ProtocolKind protocol : protocols) {
    std::uint64_t frames_by_mode[2] = {0, 0};
    std::uint64_t kinds_by_mode[2][3] = {{0, 0, 0}, {0, 0, 0}};
    for (const bool gateway_on : {false, true}) {
      bench_support::ExperimentParams params;
      params.protocol = protocol;
      params.sites = 8;
      params.replication = causal::requires_full_replication(protocol)
                               ? 0
                               : bench_support::partial_replication_factor(8);
      params.write_rate = 0.5;
      params.ops_per_site = options.quick ? 150 : 300;
      params.seeds = options.quick ? std::vector<std::uint64_t>{1}
                                   : std::vector<std::uint64_t>{1, 2, 3};
      params.gap_lo = 1 * kMillisecond;  // loaded DC, not the paper's think time
      params.gap_hi = 10 * kMillisecond;
      params.topology = two_level(params.sites, 2, 40 * kMillisecond);
      params.gateway.enabled = gateway_on;
      // A quarter of the RTT: the visibility price of a coalescing window
      // stays second-order next to the WAN delay it batches for.
      params.gateway.max_delay = 20 * kMillisecond;
      params.check = true;
      if (gateway_on && shared_sink != nullptr) {
        params.trace_sink = shared_sink;
        shared_sink = nullptr;  // one traced cell, as everywhere else
      }
      const std::string label = std::string("ab ") + to_string(protocol) +
                                (gateway_on ? " gateway=on" : " gateway=off");
      const auto r = observability.run_cell(label, params);
      const int m = gateway_on ? 1 : 0;
      frames_by_mode[m] = r.wan_frames;
      kinds_by_mode[m][0] = r.stats.of(MessageKind::kSM).count;
      kinds_by_mode[m][1] = r.stats.of(MessageKind::kFM).count;
      kinds_by_mode[m][2] = r.stats.of(MessageKind::kRM).count;
      const double per_frame =
          r.gateway_frames == 0
              ? 0.0
              : static_cast<double>(r.gateway_frame_messages) /
                    static_cast<double>(r.gateway_frames);
      ab.add_row({to_string(protocol), gateway_on ? "on" : "off",
                  r.check_ok ? "ok" : "VIOLATION",
                  stats::Table::integer(r.wan_frames),
                  stats::Table::integer(r.gateway_frames),
                  stats::Table::num(per_frame, 1),
                  stats::Table::integer(kinds_by_mode[m][0]),
                  stats::Table::integer(kinds_by_mode[m][1]),
                  stats::Table::integer(kinds_by_mode[m][2])});
      if (!r.check_ok) {
        std::cerr << "FAIL: causal violation under " << to_string(protocol)
                  << " with gateway " << (gateway_on ? "on" : "off") << ": "
                  << r.violations.front() << "\n";
        ab_ok = false;
      }
    }
    for (int k = 0; k < 3; ++k) {
      if (kinds_by_mode[0][k] != kinds_by_mode[1][k]) {
        std::cerr << "FAIL: " << to_string(protocol) << " "
                  << to_string(kAllMessageKinds[static_cast<std::size_t>(k)])
                  << " count changed across the gateway A/B ("
                  << kinds_by_mode[0][k] << " off vs " << kinds_by_mode[1][k]
                  << " on) — the mailbox must batch the wire, not the protocol\n";
        ab_ok = false;
      }
    }
    if (frames_by_mode[1] == 0 || frames_by_mode[0] < 2 * frames_by_mode[1]) {
      std::cerr << "FAIL: " << to_string(protocol) << " WAN frames off="
                << frames_by_mode[0] << " on=" << frames_by_mode[1]
                << " — gateway coalescing must cut cross-DC frames >= 2x\n";
      ab_ok = false;
    }
  }
  std::cout << ab << "\n";
  if (options.csv) std::cout << "CSV:\n" << ab.to_csv() << "\n";
  if (!ab_ok) return 1;

  return observability.finish() ? 0 : 1;
}
