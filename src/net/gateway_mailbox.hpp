// GatewayMailbox — cross-datacenter mailbox routing at the top of the
// transport stack (the hive-style inter-cluster mailbox of ROADMAP's
// geo-replication item).
//
// With a two-level topology (topo::Topology) every cross-cell protocol
// message would otherwise pay its own WAN frame. This layer lets each cell
// designate a *gateway* site that aggregates its cell's outbound cross-DC
// traffic: a sender hands a cross-cell message to its own gateway (an
// intra-cell "enroute" hop, skipped when the sender is the gateway), the
// gateway appends it to a per-destination-cell mailbox — one slot of a
// CoalescerTable (net/coalescer.hpp) — and the mailbox ships as one
// *mailbox frame* over the WAN link when a threshold trips. The receiving
// gateway validates the whole frame, then hands each entry straight to its
// destination site's handler in frame order.
//
// Wire format (all little-endian):
//
//   mailbox frame:  [0xB5][origin_cell u16][dest_cell u16][count u32]
//                   then per message [len u32][from u16][to u16][payload]
//                   (len covers the 4 routing bytes + payload) — the
//                   core's frame layout with a cell-pair header;
//   enroute frame:  [0xB6][to u16][payload] — sender -> own gateway.
//
// FIFO per origin site is preserved end to end: a (s, t) cross-cell pair's
// messages all take the fixed route s -> gw(s) -> gw(t) -> t, and every
// stage keeps their relative order — the s -> gw(s) channel is FIFO, the
// mailbox appends in arrival order, the gw(s) -> gw(t) channel ships
// frames in flush order, and fan-out walks each frame in append order.
//
// With coalescing off (CoalesceConfig::enabled = false) the layer is a
// counting pass-through: every send goes directly to its destination, but
// the scope-split msg.{lan,wan}.* accounting still runs — that is the
// A/B baseline lane of bench/ext_geo.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/ids.hpp"
#include "net/coalescer.hpp"
#include "net/timer.hpp"
#include "net/transport.hpp"
#include "serial/buffer_pool.hpp"

namespace causim::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace causim::obs

namespace causim::net {

/// Site → cell map plus per-cell gateway designation, precomputed from a
/// validated topo::Topology (see Topology::routing). Lives here so the
/// transport layer needs no dependency on causim_topo.
struct CellRouting {
  /// cell_of[site] — every site belongs to exactly one cell.
  std::vector<std::uint16_t> cell_of;
  /// gateways[cell] — the designated gateway site of each cell.
  std::vector<SiteId> gateways;

  std::size_t cells() const { return gateways.size(); }
  bool same_cell(SiteId a, SiteId b) const { return cell_of[a] == cell_of[b]; }
};

/// Transport decorator routing cross-cell traffic through per-cell gateway
/// mailboxes. The topmost decorator — sites send through it, and it sits
/// above BatchingTransport so an intra-cell enroute hop can itself be
/// batch-coalesced. packets_sent()/packets_delivered() count app-level
/// messages, keeping the cluster quiescence invariant above the mailbox
/// boundary.
class GatewayMailbox final : public Transport, public PacketHandler {
 public:
  /// Mailbox frames (gateway -> gateway) carry the u16 origin and u16
  /// destination cell as their header.
  static constexpr Framing kFraming{0xB5, 4};
  /// Enroute frame tag (sender -> own gateway).
  static constexpr std::uint8_t kEnrouteTag = 0xB6;

  /// Attaches itself as the inner transport's handler for every site;
  /// construct the stack bottom-up and attach the real handlers here.
  /// `routing` must cover inner.size() sites across >= 2 cells.
  GatewayMailbox(Transport& inner, TimerDriver& timer,
                 const CoalesceConfig& config, CellRouting routing);

  void attach(SiteId site, PacketHandler* handler) override;
  void send(SiteId from, SiteId to, serial::Bytes bytes) override;
  SiteId size() const override { return inner_.size(); }
  std::uint64_t packets_sent() const override;
  std::uint64_t packets_delivered() const override;
  /// Keeps the sink for kGatewayForward events, forwards it down the stack.
  void set_trace_sink(obs::TraceSink* sink) override;

  /// Wires `pool` into every mailbox and the fan-out copy path. Call
  /// before the first send; null disables pooling (the default).
  void set_buffer_pool(serial::BufferPool* pool);

  void on_packet(Packet packet) override;

  /// Ships every non-empty mailbox. Executors call this at the start of
  /// drain — note a flush can strand *new* enroute arrivals in a mailbox,
  /// so thread-path drains loop flush_all + inner quiescence until
  /// quiescent() (see engine::PooledExecutor::drain).
  void flush_all() { mailboxes_.flush_all(); }

  /// Nothing buffered in any mailbox and every accepted message delivered.
  bool quiescent() const;

  // -- whole-layer counters --
  /// App-level messages by scope of (from, to).
  std::uint64_t lan_messages() const;
  std::uint64_t wan_messages() const;
  std::uint64_t lan_bytes() const;
  std::uint64_t wan_bytes() const;
  /// Frames this layer put on a cross-cell channel: mailbox frames when
  /// coalescing, direct cross-cell sends when passing through — the
  /// denominator of the ext_geo A/B.
  std::uint64_t wan_frames() const;
  /// Mailbox frames shipped / messages inside them (0 when pass-through).
  std::uint64_t mailbox_frames() const { return mailboxes_.frames(); }
  std::uint64_t mailbox_messages() const { return mailboxes_.messages(); }
  /// Messages relayed through an enroute hop (sender was not its gateway).
  std::uint64_t enroute_messages() const;
  /// Wire frames dropped as invalid — syntactically, or routed where they
  /// cannot have come from — instead of crashing.
  std::uint64_t malformed() const;
  std::uint64_t buffered_messages() const {
    return mailboxes_.buffered_messages();
  }
  std::uint64_t flushes(Flush reason) const { return mailboxes_.flushes(reason); }

  const CellRouting& routing() const { return routing_; }
  bool coalescing() const { return coalescing_; }

  /// Folds the layer's counters into `registry` under net.gateway.* plus
  /// the scope-split msg.{lan,wan}.* — both disjoint from the per-kind
  /// msg.SM/FM/RM namespace and from net.batch.*/net.reliable.*.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Appends to the (oc -> dc) mailbox.
  void mailbox_append(std::size_t oc, std::size_t dc, SiteId from, SiteId to,
                      serial::Bytes&& payload);
  /// Ships mailbox `slot` = oc * cells + dc over the gateway -> gateway
  /// channel and traces it.
  void ship(std::size_t slot, Frame&& frame);
  void on_enroute(Packet&& packet);
  void on_mailbox(Packet&& packet);
  void count_malformed();
  serial::Bytes copy(const std::uint8_t* data, std::size_t len);

  Transport& inner_;
  TimerDriver& timer_;
  const bool coalescing_;
  const CellRouting routing_;
  CoalescerTable mailboxes_;
  std::vector<PacketHandler*> handlers_;

  mutable std::mutex stats_mutex_;
  std::uint64_t sent_ = 0;       // app-level messages accepted by send()
  std::uint64_t delivered_ = 0;  // app-level messages handed to handlers
  std::uint64_t lan_messages_ = 0;
  std::uint64_t wan_messages_ = 0;
  std::uint64_t lan_bytes_ = 0;
  std::uint64_t wan_bytes_ = 0;
  std::uint64_t wan_passthrough_ = 0;  // direct cross-cell frames (enabled off)
  std::uint64_t enroute_ = 0;
  std::uint64_t malformed_ = 0;

  obs::TraceSink* trace_ = nullptr;
  serial::BufferPool* pool_ = nullptr;
};

}  // namespace causim::net
