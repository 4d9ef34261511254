// The two coalescing layers on the wire, driven only through their public
// Transport surface (send / on_packet) over a capturing inner transport:
//
//   * golden bytes: the exact 0xB4 batch frame, 0xB5 mailbox frame and
//     0xB6 enroute wrap each layer hands to the transport below it;
//   * malformed receive input: every bad frame fed to on_packet adds one to
//     malformed() and reaches no handler, and a good frame sent afterwards
//     still delivers;
//   * routing forgery at the gateway: an enroute frame from another cell, or
//     a mailbox frame not sent by its origin cell's gateway, is rejected
//     before it can poison a mailbox.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/config.hpp"
#include "net/batching_transport.hpp"
#include "net/gateway_mailbox.hpp"
#include "net/timer.hpp"
#include "sim/simulator.hpp"

namespace causim {
namespace {

using serial::Bytes;

/// Records every frame a layer hands down instead of delivering it; tests
/// feed the captured frames back into on_packet by hand.
class CaptureTransport final : public net::Transport {
 public:
  explicit CaptureTransport(SiteId n) : n_(n) {}
  void attach(SiteId, net::PacketHandler*) override {}
  void send(SiteId from, SiteId to, Bytes bytes) override {
    sent.push_back(net::Packet{from, to, sent.size(), std::move(bytes)});
  }
  SiteId size() const override { return n_; }
  std::uint64_t packets_sent() const override { return sent.size(); }
  std::uint64_t packets_delivered() const override { return 0; }

  std::vector<net::Packet> sent;

 private:
  SiteId n_;
};

class Sink final : public net::PacketHandler {
 public:
  void on_packet(net::Packet packet) override {
    got.push_back(std::move(packet));
  }
  std::vector<net::Packet> got;
};

// ---- BatchingTransport (0xB4) ----

struct BatchRig {
  CaptureTransport wire{2};
  sim::Simulator simulator;
  net::SimTimerDriver timer{simulator};
  net::BatchingTransport batching{wire, timer, [] {
                                    decltype(engine::EngineConfig::batch) c;
                                    c.enabled = true;
                                    c.max_messages = 2;
                                    return c;
                                  }()};
  Sink sink0;
  Sink sink1;
  BatchRig() {
    batching.attach(0, &sink0);
    batching.attach(1, &sink1);
  }
};

const Bytes kGoldenBatch = {
    0xB4,                    // tag
    2, 0, 0, 0,              // u32 count
    3, 0, 0, 0,              // u32 len
    0xAA, 0xBB, 0xCC,        // entry: payload
    1, 0, 0, 0,              // u32 len
    0x11,                    // entry: payload
};

TEST(CoalescingWire, BatchFrameLayoutIsPinned) {
  BatchRig rig;
  rig.batching.send(0, 1, Bytes{0xAA, 0xBB, 0xCC});
  EXPECT_TRUE(rig.wire.sent.empty());
  rig.batching.send(0, 1, Bytes{0x11});  // the count threshold ships
  ASSERT_EQ(rig.wire.sent.size(), 1u);
  EXPECT_EQ(rig.wire.sent[0].from, 0);
  EXPECT_EQ(rig.wire.sent[0].to, 1);
  EXPECT_EQ(rig.wire.sent[0].bytes, kGoldenBatch);

  rig.batching.on_packet(rig.wire.sent[0]);
  ASSERT_EQ(rig.sink1.got.size(), 2u);
  EXPECT_EQ(rig.sink1.got[0].bytes, (Bytes{0xAA, 0xBB, 0xCC}));
  EXPECT_EQ(rig.sink1.got[1].bytes, (Bytes{0x11}));
  EXPECT_EQ(rig.batching.packets_delivered(), 2u);
}

TEST(CoalescingWire, BatchReceiveCountsMalformedFramesAndDeliversNothing) {
  BatchRig rig;
  const Bytes truncated(kGoldenBatch.begin(), kGoldenBatch.end() - 1);
  Bytes bad_tag = kGoldenBatch;
  bad_tag[0] = 0xD1;  // a ReliableChannel DATA tag, not a batch frame
  std::uint64_t expected = 0;
  for (const Bytes& bad : {truncated, bad_tag}) {
    rig.batching.on_packet(net::Packet{0, 1, 0, bad});
    EXPECT_EQ(rig.batching.malformed(), ++expected);
    EXPECT_TRUE(rig.sink1.got.empty());
    EXPECT_EQ(rig.batching.packets_delivered(), 0u);
  }
  rig.batching.on_packet(net::Packet{0, 1, 0, kGoldenBatch});
  EXPECT_EQ(rig.sink1.got.size(), 2u);
  EXPECT_EQ(rig.batching.malformed(), expected);
}

// ---- GatewayMailbox (0xB5 mailbox frames, 0xB6 enroute wraps) ----

/// 4 sites in 2 cells, {0, 1} and {2, 3}; the gateways are 0 and 2.
struct GatewayRig {
  CaptureTransport wire{4};
  sim::Simulator simulator;
  net::SimTimerDriver timer{simulator};
  net::GatewayMailbox gateway{wire, timer,
                              [] {
                                decltype(engine::EngineConfig::gateway) c;
                                c.enabled = true;
                                c.max_messages = 2;
                                return c;
                              }(),
                              net::CellRouting{{0, 0, 1, 1}, {0, 2}}};
  Sink sinks[4];
  GatewayRig() {
    for (SiteId s = 0; s < 4; ++s) gateway.attach(s, &sinks[s]);
  }
  std::size_t handler_calls() const {
    std::size_t total = 0;
    for (const Sink& s : sinks) total += s.got.size();
    return total;
  }
};

const Bytes kGoldenEnroute = {
    0xB6,  // tag
    3, 0,  // u16 final destination
    0x77,  // payload
};

const Bytes kGoldenMailbox = {
    0xB5,        // tag
    0, 0,        // u16 origin cell
    1, 0,        // u16 destination cell
    2, 0, 0, 0,  // u32 count
    5, 0, 0, 0,  // u32 len (routing + payload)
    1, 0, 3, 0,  // entry: u16 from, u16 to
    0x77,        //        payload
    6, 0, 0, 0,  // u32 len
    0, 0, 2, 0,  // entry: u16 from, u16 to
    0x55, 0x66,  //        payload
};

/// Drives 1 -> 3 (through the enroute hop) and 0 -> 2 (the gateway's own
/// traffic) into the cell 0 -> cell 1 mailbox; returns the shipped frame.
net::Packet ship_golden_mailbox(GatewayRig& rig) {
  rig.gateway.send(1, 3, Bytes{0x77});
  EXPECT_EQ(rig.wire.sent.size(), 1u);
  rig.gateway.on_packet(rig.wire.sent.at(0));  // arrives at gateway 0
  rig.gateway.send(0, 2, Bytes{0x55, 0x66});   // the count threshold ships
  EXPECT_EQ(rig.wire.sent.size(), 2u);
  return rig.wire.sent.at(1);
}

TEST(CoalescingWire, EnrouteAndMailboxFrameLayoutsArePinned) {
  GatewayRig rig;
  const net::Packet mailbox = ship_golden_mailbox(rig);
  EXPECT_EQ(rig.wire.sent[0].from, 1);
  EXPECT_EQ(rig.wire.sent[0].to, 0);
  EXPECT_EQ(rig.wire.sent[0].bytes, kGoldenEnroute);
  EXPECT_EQ(mailbox.from, 0);
  EXPECT_EQ(mailbox.to, 2);
  EXPECT_EQ(mailbox.bytes, kGoldenMailbox);

  // Entries go straight to their destination sites' handlers.
  rig.gateway.on_packet(mailbox);
  ASSERT_EQ(rig.sinks[3].got.size(), 1u);
  EXPECT_EQ(rig.sinks[3].got[0].from, 1);
  EXPECT_EQ(rig.sinks[3].got[0].bytes, (Bytes{0x77}));
  ASSERT_EQ(rig.sinks[2].got.size(), 1u);
  EXPECT_EQ(rig.sinks[2].got[0].from, 0);
  EXPECT_EQ(rig.sinks[2].got[0].bytes, (Bytes{0x55, 0x66}));
  EXPECT_EQ(rig.gateway.packets_delivered(), 2u);
  EXPECT_EQ(rig.gateway.malformed(), 0u);
}

TEST(GatewayCoalescer, EnrouteRoundTrip) {
  GatewayRig rig;
  Bytes payload(123);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  rig.gateway.send(1, 3, payload);
  ASSERT_EQ(rig.wire.sent.size(), 1u);
  ASSERT_EQ(rig.wire.sent[0].bytes.size(), 3 + payload.size());
  EXPECT_EQ(rig.wire.sent[0].bytes[0], 0xB6);
  EXPECT_EQ(rig.gateway.enroute_messages(), 1u);

  rig.gateway.on_packet(rig.wire.sent[0]);
  EXPECT_EQ(rig.gateway.buffered_messages(), 1u);
  rig.gateway.flush_all();
  ASSERT_EQ(rig.wire.sent.size(), 2u);
  rig.gateway.on_packet(rig.wire.sent[1]);
  ASSERT_EQ(rig.sinks[3].got.size(), 1u);
  EXPECT_EQ(rig.sinks[3].got[0].from, 1);
  EXPECT_EQ(rig.sinks[3].got[0].bytes, payload);
  EXPECT_TRUE(rig.gateway.quiescent());
}

TEST(GatewayCoalescer, EnrouteRejectsTruncationAndBadTag) {
  GatewayRig rig;
  // Cut inside the 3-byte enroute header (the empty packet is not a claimed
  // gateway frame, so it is plain traffic), then a mailbox tag on an
  // enroute body.
  const std::vector<Bytes> bad = {
      Bytes{0xB6}, Bytes{0xB6, 3}, Bytes{0xB5, 3, 0, 0x77}};
  std::uint64_t expected = 0;
  for (const Bytes& bytes : bad) {
    rig.gateway.on_packet(net::Packet{1, 0, 0, bytes});
    EXPECT_EQ(rig.gateway.malformed(), ++expected);
    EXPECT_EQ(rig.handler_calls(), 0u);
    EXPECT_EQ(rig.gateway.buffered_messages(), 0u);
  }
  rig.gateway.on_packet(net::Packet{1, 0, 0, kGoldenEnroute});
  EXPECT_EQ(rig.gateway.buffered_messages(), 1u);
  EXPECT_EQ(rig.gateway.malformed(), expected);
}

TEST(CoalescingWire, GatewayReceiveCountsMalformedFramesAndDeliversNothing) {
  GatewayRig rig;
  const net::Packet good = ship_golden_mailbox(rig);

  // An entry whose endpoints fall outside the header's cell pair: the first
  // entry claims to come from site 2, which is in cell 1, not cell 0.
  Bytes foreign_entry = kGoldenMailbox;
  foreign_entry[13] = 2;
  const std::vector<net::Packet> bad = {
      net::Packet{0, 3, 0, kGoldenMailbox},  // mailbox at a non-gateway site
      net::Packet{0, 2, 0, foreign_entry},
      net::Packet{0, 1, 0, Bytes{0xB6, 3, 0, 0x77}},  // enroute to a non-gateway
  };
  std::uint64_t expected = 0;
  for (const net::Packet& packet : bad) {
    rig.gateway.on_packet(packet);
    EXPECT_EQ(rig.gateway.malformed(), ++expected);
    EXPECT_EQ(rig.handler_calls(), 0u);
    EXPECT_EQ(rig.gateway.buffered_messages(), 0u);
  }
  rig.gateway.on_packet(good);
  EXPECT_EQ(rig.handler_calls(), 2u);
  EXPECT_EQ(rig.gateway.malformed(), expected);
}

TEST(CoalescingWire, GatewayRejectsForgedRoutingBeforeItPoisonsAMailbox) {
  GatewayRig rig;
  // Site 3 lives in cell 1, so it has no business using gateway 0 as its
  // enroute hop. Accepting the frame would put a cell-1 sender into the
  // cell 0 -> cell 1 mailbox, and gateway 2 would then reject that whole
  // mailbox frame, taking every valid entry with it.
  rig.gateway.on_packet(net::Packet{3, 0, 0, Bytes{0xB6, 2, 0, 0x99}});
  EXPECT_EQ(rig.gateway.malformed(), 1u);
  EXPECT_EQ(rig.gateway.buffered_messages(), 0u);

  // A mailbox frame must come from its origin cell's gateway (0), not from
  // another site of that cell.
  const net::Packet good = ship_golden_mailbox(rig);
  net::Packet forged = good;
  forged.from = 1;
  rig.gateway.on_packet(forged);
  EXPECT_EQ(rig.gateway.malformed(), 2u);
  EXPECT_EQ(rig.handler_calls(), 0u);

  rig.gateway.on_packet(good);
  EXPECT_EQ(rig.gateway.malformed(), 2u);
  ASSERT_EQ(rig.sinks[3].got.size(), 1u);
  EXPECT_EQ(rig.sinks[3].got[0].bytes, (Bytes{0x77}));
  EXPECT_EQ(rig.sinks[2].got.size(), 1u);
}

}  // namespace
}  // namespace causim
