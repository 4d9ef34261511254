// Direct tests of SiteRuntime with a hand-driven transport: pending-queue
// behaviour under out-of-order delivery, cascade applies, the FM/RM flow,
// and statistics gating.
#include <gtest/gtest.h>

#include <deque>

#include "causal/factory.hpp"
#include "checker/causal_checker.hpp"
#include "dsm/placement.hpp"
#include "dsm/site_runtime.hpp"

namespace causim::dsm {
namespace {

/// Transport test double: queues packets and delivers them only when the
/// test says so — in any order the test chooses.
class ManualTransport final : public net::Transport {
 public:
  explicit ManualTransport(SiteId n) : handlers_(n, nullptr) {}

  void attach(SiteId site, net::PacketHandler* handler) override {
    handlers_[site] = handler;
  }
  void send(SiteId from, SiteId to, serial::Bytes bytes) override {
    ++sent_;
    outbox_.push_back(net::Packet{from, to, 0, std::move(bytes)});
  }
  SiteId size() const override { return static_cast<SiteId>(handlers_.size()); }
  std::uint64_t packets_sent() const override { return sent_; }
  std::uint64_t packets_delivered() const override { return delivered_; }

  std::size_t in_flight() const { return outbox_.size(); }

  /// Delivers the i-th queued packet (default: oldest).
  void deliver(std::size_t index = 0) {
    ASSERT_LT(index, outbox_.size());
    net::Packet p = std::move(outbox_[index]);
    outbox_.erase(outbox_.begin() + static_cast<std::ptrdiff_t>(index));
    ++delivered_;
    handlers_[p.to]->on_packet(std::move(p));
  }

  void deliver_all() {
    while (!outbox_.empty()) deliver(0);
  }

  /// Destination of the i-th queued packet.
  SiteId to_of(std::size_t index) const { return outbox_[index].to; }

  /// Removes the oldest queued packet without delivering it; its bytes go
  /// to `bytes`.
  void take_first(serial::Bytes* bytes) {
    ASSERT_FALSE(outbox_.empty());
    *bytes = std::move(outbox_.front().bytes);
    outbox_.pop_front();
  }

 private:
  std::vector<net::PacketHandler*> handlers_;
  std::deque<net::Packet> outbox_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

class SiteRuntimeTest : public ::testing::Test {
 protected:
  static constexpr SiteId kN = 3;

  SiteRuntimeTest()
      : placement_(Placement::full(kN, 8)), transport_(kN) {
    for (SiteId i = 0; i < kN; ++i) {
      sites_.push_back(std::make_unique<SiteRuntime>(
          i, placement_, transport_,
          causal::make_protocol(causal::ProtocolKind::kOptTrackCrp, i, kN), &history_,
          serial::ClockWidth::k4Bytes));
      transport_.attach(i, sites_.back().get());
    }
  }

  Placement placement_;
  ManualTransport transport_;
  checker::HistoryRecorder history_;
  std::vector<std::unique_ptr<SiteRuntime>> sites_;
};

TEST_F(SiteRuntimeTest, WriteMulticastsToAllOtherReplicas) {
  sites_[0]->write(0, 16);
  EXPECT_EQ(transport_.in_flight(), 2u);  // full replication, n-1 copies
  // Local replica applied immediately.
  const auto [value, w] = sites_[0]->local_value(0);
  EXPECT_FALSE(is_bottom(value));
  EXPECT_EQ(w, (WriteId{0, 1}));
  transport_.deliver_all();
  EXPECT_EQ(sites_[1]->local_value(0).second, w);
  EXPECT_EQ(sites_[2]->local_value(0).second, w);
}

TEST_F(SiteRuntimeTest, OutOfOrderCausalChainWaitsInPendingQueue) {
  // s0 writes x; s1 receives it, reads it, writes y. Deliver y to s2 first:
  // it must wait for x, then both apply in one cascade.
  sites_[0]->write(0, 0);
  // Deliver x to s1 only (find the packet addressed to 1).
  const std::size_t idx = transport_.to_of(0) == 1 ? 0 : 1;
  transport_.deliver(idx);
  sites_[1]->read(0, {});
  sites_[1]->write(1, 0);

  // In flight now: x→2 plus y→{0,2}. Deliver y→2 before x→2.
  std::size_t y_to_2 = static_cast<std::size_t>(-1);
  std::size_t x_to_2 = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < transport_.in_flight(); ++i) {
    if (transport_.to_of(i) != 2) continue;
    // x was sent before y, so the first packet to 2 is x.
    if (x_to_2 == static_cast<std::size_t>(-1)) {
      x_to_2 = i;
    } else {
      y_to_2 = i;
    }
  }
  ASSERT_NE(y_to_2, static_cast<std::size_t>(-1));
  transport_.deliver(y_to_2);  // y arrives first
  EXPECT_EQ(sites_[2]->pending_updates(), 1u);
  EXPECT_TRUE(is_null(sites_[2]->local_value(1).second)) << "y must not apply yet";

  transport_.deliver_all();  // x arrives; cascade applies x then y
  EXPECT_EQ(sites_[2]->pending_updates(), 0u);
  EXPECT_EQ(sites_[2]->local_value(0).second, (WriteId{0, 1}));
  EXPECT_EQ(sites_[2]->local_value(1).second, (WriteId{1, 1}));

  const auto result = checker::check_causal_consistency(
      history_.events(), kN, [this](VarId v) { return placement_.replicas(v); });
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? ""
                                                         : result.violations.front());
}

TEST_F(SiteRuntimeTest, ConcurrentWritesApplyOnArrivalInAnyOrder) {
  sites_[0]->write(0, 0);
  sites_[1]->write(1, 0);
  // Deliver in "reverse" order at site 2: both are independent, no waiting.
  std::vector<std::size_t> to2;
  for (std::size_t i = 0; i < transport_.in_flight(); ++i) {
    if (transport_.to_of(i) == 2) to2.push_back(i);
  }
  ASSERT_EQ(to2.size(), 2u);
  transport_.deliver(to2[1]);
  EXPECT_EQ(sites_[2]->pending_updates(), 0u);
  transport_.deliver_all();
  EXPECT_EQ(sites_[2]->pending_updates(), 0u);
}

TEST_F(SiteRuntimeTest, StatsRecordedAtSenderOnlyWhenRecordFlagSet) {
  sites_[0]->write(0, 16, /*record=*/false);
  EXPECT_EQ(sites_[0]->message_stats().total().count, 0u);
  sites_[0]->write(0, 16, /*record=*/true);
  EXPECT_EQ(sites_[0]->message_stats().of(MessageKind::kSM).count, 2u);
  // Receivers never count received messages — only what they send.
  transport_.deliver_all();
  EXPECT_EQ(sites_[1]->message_stats().total().count, 0u);
}

TEST_F(SiteRuntimeTest, LogSamplesTrackOperations) {
  EXPECT_EQ(sites_[0]->log_entries().count(), 0u);
  sites_[0]->write(0, 0);
  sites_[0]->read(0, {});
  EXPECT_EQ(sites_[0]->log_entries().count(), 2u);
}

TEST_F(SiteRuntimeTest, ReadCallbackGetsValueAndWriter) {
  sites_[0]->write(3, 99);
  transport_.deliver_all();
  bool called = false;
  const bool inline_done = sites_[2]->read(3, [&](Value v, WriteId w) {
    called = true;
    EXPECT_EQ(v.payload_bytes, 99u);
    EXPECT_EQ(w, (WriteId{0, 1}));
  });
  EXPECT_TRUE(inline_done);  // full replication: always local
  EXPECT_TRUE(called);
}

class PartialRuntimeTest : public ::testing::Test {
 protected:
  static constexpr SiteId kN = 4;

  PartialRuntimeTest()
      : placement_(kN, 8, 2, /*seed=*/11), transport_(kN) {
    for (SiteId i = 0; i < kN; ++i) {
      sites_.push_back(std::make_unique<SiteRuntime>(
          i, placement_, transport_,
          causal::make_protocol(causal::ProtocolKind::kOptTrack, i, kN), &history_,
          serial::ClockWidth::k4Bytes));
      transport_.attach(i, sites_.back().get());
    }
    // Find a variable and a site that does not replicate it.
    for (VarId v = 0; v < 8; ++v) {
      for (SiteId s = 0; s < kN; ++s) {
        if (!placement_.replicated_at(v, s)) {
          var_ = v;
          reader_ = s;
          return;
        }
      }
    }
  }

  Placement placement_;
  ManualTransport transport_;
  checker::HistoryRecorder history_;
  std::vector<std::unique_ptr<SiteRuntime>> sites_;
  VarId var_ = kInvalidVar;
  SiteId reader_ = kInvalidSite;
};

TEST_F(PartialRuntimeTest, RemoteFetchFlow) {
  // Populate the variable from one of its replicas.
  const SiteId writer = placement_.replicas(var_).to_vector().front();
  const WriteId w = sites_[writer]->write(var_, 7);
  transport_.deliver_all();

  bool completed = false;
  const bool inline_done = sites_[reader_]->read(var_, [&](Value v, WriteId from) {
    completed = true;
    EXPECT_EQ(from, w);
    EXPECT_EQ(v.payload_bytes, 7u);
  });
  EXPECT_FALSE(inline_done);
  EXPECT_TRUE(sites_[reader_]->fetch_pending());
  ASSERT_EQ(transport_.in_flight(), 1u);  // the FM
  EXPECT_EQ(transport_.to_of(0), placement_.fetch_site(var_, reader_));
  transport_.deliver(0);                   // FM → responder sends RM
  ASSERT_EQ(transport_.in_flight(), 1u);   // the RM
  EXPECT_FALSE(completed);
  transport_.deliver(0);
  EXPECT_TRUE(completed);
  EXPECT_FALSE(sites_[reader_]->fetch_pending());

  // FM recorded at the reader, RM at the responder.
  EXPECT_EQ(sites_[reader_]->message_stats().of(MessageKind::kFM).count, 1u);
  const SiteId responder = placement_.fetch_site(var_, reader_);
  EXPECT_EQ(sites_[responder]->message_stats().of(MessageKind::kRM).count, 1u);
}

TEST_F(PartialRuntimeTest, WarmupFetchPropagatesToRmAccounting) {
  const bool inline_done = sites_[reader_]->read(var_, {}, /*record=*/false);
  EXPECT_FALSE(inline_done);
  transport_.deliver_all();
  EXPECT_EQ(sites_[reader_]->message_stats().total().count, 0u);
  const SiteId responder = placement_.fetch_site(var_, reader_);
  EXPECT_EQ(sites_[responder]->message_stats().total().count, 0u)
      << "the RM must inherit the FM's warm-up flag";
}

TEST_F(PartialRuntimeTest, FetchOfUnwrittenVariableReturnsBottom) {
  bool completed = false;
  sites_[reader_]->read(var_, [&](Value v, WriteId w) {
    completed = true;
    EXPECT_TRUE(is_bottom(v));
    EXPECT_TRUE(is_null(w));
  });
  transport_.deliver_all();
  EXPECT_TRUE(completed);
}

TEST_F(PartialRuntimeTest, CorruptSmOrRmMetaDataPanics) {
  // The protocol reads the meta-data straight from the frame; a log header
  // promising an entry the frame does not hold is still a corrupt frame.
  serial::ByteWriter meta;
  meta.put_u16(kN);
  meta.put_u16(1);
  const SiteId replica = placement_.replicas(var_).to_vector().front();
  Envelope sm;
  sm.kind = MessageKind::kSM;
  sm.sender = replica == 0 ? 1 : 0;
  sm.var = var_;
  sm.write = WriteId{sm.sender, 1};
  sm.meta = meta.bytes();
  EXPECT_DEATH(sites_[replica]->on_packet(net::Packet{
                   sm.sender, replica, 0, sm.encode(serial::ClockWidth::k4Bytes)}),
               "corrupt SM meta-data");

  sites_[reader_]->read(var_, {});  // fetch 1 outstanding
  Envelope rm;
  rm.kind = MessageKind::kRM;
  rm.sender = placement_.fetch_site(var_, reader_);
  rm.var = var_;
  rm.fetch_seq = 1;
  rm.meta = meta.bytes();
  EXPECT_DEATH(sites_[reader_]->on_packet(net::Packet{
                   rm.sender, reader_, 0, rm.encode(serial::ClockWidth::k4Bytes)}),
               "corrupt RM meta-data");
}

TEST_F(SiteRuntimeTest, CrpPiggybackWithABadSiteIdPanics) {
  // Opt-Track-CRP indexes Apply with every piggybacked site: one >= n, or
  // sites out of the encoder's strictly increasing order (a duplicate
  // included), make the SM corrupt instead of an out-of-range read.
  const auto deliver_with = [this](std::initializer_list<std::pair<SiteId, WriteClock>> log) {
    serial::ByteWriter meta;
    meta.put_u16(static_cast<std::uint16_t>(log.size()));
    for (const auto& [site, clock] : log) {
      meta.put_site(site);
      meta.put_clock(clock);
    }
    Envelope sm;
    sm.kind = MessageKind::kSM;
    sm.sender = 1;
    sm.var = 0;
    sm.write = WriteId{1, 1};
    sm.meta = meta.bytes();
    sites_[0]->on_packet(net::Packet{1, 0, 0, sm.encode(serial::ClockWidth::k4Bytes)});
  };
  EXPECT_DEATH(deliver_with({{99, 1}}), "corrupt SM meta-data");
  EXPECT_DEATH(deliver_with({{2, 1}, {1, 1}}), "corrupt SM meta-data");
  EXPECT_DEATH(deliver_with({{1, 1}, {1, 2}}), "corrupt SM meta-data");
  // The same shape with valid ids is accepted (and waits on site 2).
  deliver_with({{1, 0}, {2, 1}});
  EXPECT_EQ(sites_[0]->pending_updates(), 1u);
}

class SiteIdCheckTest : public ::testing::TestWithParam<causal::ProtocolKind> {
 protected:
  static constexpr SiteId kN = 4;

  SiteIdCheckTest() : placement_(Placement::full(kN, 8)), transport_(kN) {
    for (SiteId i = 0; i < kN; ++i) {
      sites_.push_back(std::make_unique<SiteRuntime>(
          i, placement_, transport_, causal::make_protocol(GetParam(), i, kN), nullptr,
          serial::ClockWidth::k4Bytes));
      transport_.attach(i, sites_.back().get());
    }
  }

  /// Hands site 0 a well-formed SM whose envelope names `sender` and
  /// `writer` (a real write's meta-data, so only the ids are wrong).
  void deliver_sm(SiteId sender, SiteId writer) {
    sites_[1]->write(0, 8);
    Envelope sm = Envelope::decode(outbox_frame(), serial::ClockWidth::k4Bytes);
    sm.sender = sender;
    sm.write.writer = writer;
    sites_[0]->on_packet(net::Packet{1, 0, 0, sm.encode(serial::ClockWidth::k4Bytes)});
  }

  serial::Bytes outbox_frame() {
    serial::Bytes frame;
    transport_.take_first(&frame);
    return frame;
  }

  Placement placement_;
  ManualTransport transport_;
  std::vector<std::unique_ptr<SiteRuntime>> sites_;
};

TEST_P(SiteIdCheckTest, EnvelopeSenderOutOfRangePanics) {
  EXPECT_DEATH(deliver_sm(99, 1), "envelope sender 99 out of range for n=4");
}

TEST_P(SiteIdCheckTest, SmWriterOutOfRangePanics) {
  EXPECT_DEATH(deliver_sm(1, 99), "SM writer 99 out of range for n=4");
}

TEST_P(SiteIdCheckTest, InRangeIdsAreAccepted) {
  deliver_sm(1, 1);
  EXPECT_EQ(sites_[0]->local_value(0).second, (WriteId{1, 1}));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SiteIdCheckTest,
    ::testing::Values(causal::ProtocolKind::kFullTrack, causal::ProtocolKind::kOptTrack,
                      causal::ProtocolKind::kOptTrackCrp, causal::ProtocolKind::kOptP,
                      causal::ProtocolKind::kFullTrackHb),
    [](const ::testing::TestParamInfo<causal::ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace causim::dsm
