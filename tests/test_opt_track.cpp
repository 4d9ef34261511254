// Unit tests for the Opt-Track protocol: KS-log maintenance, the activation
// predicate, the two implicit pruning conditions, and merge-on-read.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "causal/opt_track.hpp"

namespace causim::causal {
namespace {

constexpr SiteId kN = 5;

DestSet dests(std::initializer_list<SiteId> sites) { return DestSet(kN, sites); }

serial::Bytes write_at(OptTrack& p, VarId var, const DestSet& d, WriteId* id) {
  serial::ByteWriter meta;
  *id = p.local_write(var, Value{1, 0}, d, meta);
  return meta.take();
}

std::unique_ptr<PendingUpdate> make_pending(OptTrack& receiver, SiteId sender, VarId var,
                                            const WriteId& id, const DestSet& d,
                                            const serial::Bytes& meta) {
  serial::ByteReader r(meta);
  return receiver.decode_sm(SmEnvelope{sender, var, Value{1, 0}, id}, d, r);
}

TEST(OptTrack, FirstWritePiggybacksEmptyLog) {
  OptTrack p(0, kN);
  WriteId id;
  const auto meta = write_at(p, 0, dests({0, 1}), &id);
  serial::ByteReader r(meta);
  EXPECT_TRUE(KsLog::deserialize(r).empty());
  EXPECT_EQ(id, (WriteId{0, 1}));
}

TEST(OptTrack, LocalWriteEntersLogWithoutSelf) {
  OptTrack p(0, kN);
  WriteId id;
  write_at(p, 0, dests({0, 1, 2}), &id);
  ASSERT_NE(p.log().find(id), nullptr);
  EXPECT_EQ(*p.log().find(id), dests({1, 2}));  // condition (1): self applied
  EXPECT_EQ(p.applied_clock(0), 1u);
}

TEST(OptTrack, SendTimePruningDropsCoveredDests) {
  // Condition (2): a second write to an overlapping replica set prunes the
  // first entry's common destinations.
  OptTrack p(0, kN);
  WriteId w1, w2;
  write_at(p, 0, dests({0, 1, 2}), &w1);
  write_at(p, 1, dests({0, 2, 3}), &w2);
  ASSERT_NE(p.log().find(w1), nullptr);
  EXPECT_EQ(*p.log().find(w1), dests({1}));  // 2 covered by w2's multicast
  EXPECT_EQ(*p.log().find(w2), dests({2, 3}));
}

TEST(OptTrack, IndependentWriteImmediatelyReady) {
  OptTrack a(0, kN), b(1, kN);
  WriteId id;
  const auto meta = write_at(a, 0, dests({0, 1}), &id);
  const auto pending = make_pending(b, 0, 0, id, dests({0, 1}), meta);
  EXPECT_TRUE(b.ready(*pending));
  b.apply(*pending);
  EXPECT_EQ(b.applied_clock(0), 1u);
}

TEST(OptTrack, ProgramOrderGatesSecondWrite) {
  OptTrack a(0, kN), b(1, kN);
  const DestSet d = dests({0, 1});
  WriteId w1, w2;
  const auto m1 = write_at(a, 0, d, &w1);
  const auto m2 = write_at(a, 0, d, &w2);
  const auto p2 = make_pending(b, 0, 0, w2, d, m2);
  EXPECT_FALSE(b.ready(*p2));
  const auto p1 = make_pending(b, 0, 0, w1, d, m1);
  ASSERT_TRUE(b.ready(*p1));
  b.apply(*p1);
  EXPECT_TRUE(b.ready(*p2));
}

TEST(OptTrack, ReadCreatesCausalDependencyAcrossWriters) {
  // s0 writes x to {0,1}; s1 applies it, reads it, then writes y: y's
  // piggybacked log must carry x's entry — with s1 pruned (it applied x,
  // condition (1)) but the writer-side replica 0 still listed.
  OptTrack s0(0, kN), s1(1, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, dests({0, 1}), &wx);
  const auto px = make_pending(s1, 0, 0, wx, dests({0, 1}), mx);
  ASSERT_TRUE(s1.ready(*px));
  s1.apply(*px);
  s1.local_read(0);

  const auto my = write_at(s1, 1, dests({1, 2}), &wy);
  serial::ByteReader r(my);
  const KsLog piggyback = KsLog::deserialize(r);
  ASSERT_NE(piggyback.find(wx), nullptr);
  EXPECT_EQ(*piggyback.find(wx), dests({0}));
}

TEST(OptTrack, PredicateWaitsForPiggybackedDependency) {
  // x destined to {1,2}; s1 reads x then writes y to {1,2}; s2 must apply x
  // before y.
  OptTrack s0(0, kN), s1(1, kN), s2(2, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, dests({1, 2}), &wx);
  const auto px1 = make_pending(s1, 0, 0, wx, dests({1, 2}), mx);
  ASSERT_TRUE(s1.ready(*px1));
  s1.apply(*px1);
  s1.local_read(0);

  const auto my = write_at(s1, 1, dests({1, 2}), &wy);
  const auto py = make_pending(s2, 1, 1, wy, dests({1, 2}), my);
  EXPECT_FALSE(s2.ready(*py)) << "y causally follows x and both are destined to s2";

  const auto px2 = make_pending(s2, 0, 0, wx, dests({1, 2}), mx);
  ASSERT_TRUE(s2.ready(*px2));
  s2.apply(*px2);
  EXPECT_TRUE(s2.ready(*py));
  s2.apply(*py);
}

TEST(OptTrack, NoFalseDependencyWithoutRead) {
  OptTrack s0(0, kN), s1(1, kN), s2(2, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, dests({1, 2}), &wx);
  const auto px1 = make_pending(s1, 0, 0, wx, dests({1, 2}), mx);
  s1.apply(*px1);  // applied, never read

  const auto my = write_at(s1, 1, dests({1, 2}), &wy);
  const auto py = make_pending(s2, 1, 1, wy, dests({1, 2}), my);
  EXPECT_TRUE(s2.ready(*py));
}

TEST(OptTrack, ApplyPrunesReceiverAndMessageDests) {
  // Receiver stores LastWriteOn with condition (1)+(2) pruning applied.
  OptTrack s0(0, kN), s1(1, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, dests({0, 1, 3}), &wx);
  const auto my = write_at(s0, 1, dests({1, 2}), &wy);  // piggybacks x's entry

  const auto py = make_pending(s1, 0, 1, wy, dests({1, 2}), my);
  EXPECT_FALSE(s1.ready(*py)) << "x is destined to s1 and precedes y";
  const auto px = make_pending(s1, 0, 0, wx, dests({0, 1, 3}), mx);
  ASSERT_TRUE(s1.ready(*px));
  s1.apply(*px);
  ASSERT_TRUE(s1.ready(*py));
  s1.apply(*py);

  // LastWriteOn⟨var 1⟩ at s1: x's entry pruned by dests(y) ∪ {self} → {3};
  // y's own entry keeps {2} (condition (1) removed the receiver).
  const KsLog* deps = s1.last_write_log(1);
  ASSERT_NE(deps, nullptr);
  ASSERT_NE(deps->find(wx), nullptr);
  EXPECT_EQ(*deps->find(wx), dests({3}));
  ASSERT_NE(deps->find(wy), nullptr);
  EXPECT_EQ(*deps->find(wy), dests({2}));
}

TEST(OptTrack, RemoteReturnMergesIntoLocalLog) {
  OptTrack server(0, kN), reader(4, kN);
  WriteId wx;
  write_at(server, 2, dests({0, 1}), &wx);

  serial::ByteWriter rm;
  server.remote_return_meta(2, rm);
  const serial::Bytes bytes = rm.take();
  serial::ByteReader r(bytes);
  const auto ret = reader.decode_remote_return(r);
  // wx is not destined to site 4, so the return is immediately ready.
  ASSERT_TRUE(reader.return_ready(*ret));
  reader.absorb_remote_return(2, *ret);
  ASSERT_NE(reader.log().find(wx), nullptr);
  // Server pruned itself (condition 1), destination 1 remains.
  EXPECT_EQ(*reader.log().find(wx), dests({1}));
}

TEST(OptTrack, RemoteReturnWaitsForWritesDestinedToReader) {
  OptTrack server(0, kN), reader(1, kN);
  WriteId wx;
  const auto sm = write_at(server, 2, dests({0, 1}), &wx);

  serial::ByteWriter rm;
  server.remote_return_meta(2, rm);
  const serial::Bytes bytes = rm.take();
  serial::ByteReader r(bytes);
  const auto ret = reader.decode_remote_return(r);
  EXPECT_FALSE(reader.return_ready(*ret)) << "wx is destined to the reader, unapplied";

  const auto pending = make_pending(reader, 0, 2, wx, dests({0, 1}), sm);
  reader.apply(*pending);
  EXPECT_TRUE(reader.return_ready(*ret));
  reader.absorb_remote_return(2, *ret);
}

TEST(OptTrack, LastWriteOnStoredPerVariable) {
  OptTrack p(0, kN);
  WriteId w1, w2;
  write_at(p, 0, dests({0, 1}), &w1);
  write_at(p, 1, dests({0, 2}), &w2);
  ASSERT_NE(p.last_write_log(0), nullptr);
  ASSERT_NE(p.last_write_log(1), nullptr);
  EXPECT_NE(p.last_write_log(0)->find(w1), nullptr);
  EXPECT_NE(p.last_write_log(1)->find(w2), nullptr);
  EXPECT_EQ(p.last_write_log(7), nullptr);
}

TEST(OptTrack, LastWriteOnDecodesOnFirstUseToTheEagerLog) {
  // An SM's apply installs its piggyback's bytes as LastWriteOn; each of the
  // four first uses must decode them to the log an eager decode at receipt
  // builds, and a slot must hold one form at a time.
  const DestSet d = dests({0, 1, 4});
  OptTrack s0(0, kN), s2(2, kN);
  WriteId w;
  const auto m2 = write_at(s2, 1, dests({0, 2, 3}), &w);
  const auto p2 = make_pending(s0, 2, 1, w, dests({0, 2, 3}), m2);
  s0.apply(*p2);
  s0.local_read(1);
  write_at(s0, 2, dests({0, 3, 4}), &w);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, d, &wx);
  const auto my = write_at(s0, 0, d, &wy);  // piggybacks wx, destined to site 1

  const auto eager = [&](const WriteId& id, const serial::Bytes& meta) {
    serial::ByteReader r(meta);
    const KsLog log = KsLog::decode_applied(r, {id, d, 1}, {}, KsLog());
    EXPECT_TRUE(r.ok() && r.done());
    return log;
  };
  const KsLog log_x = eager(wx, mx);
  ASSERT_EQ(log_x.size(), 3u);
  serial::ByteWriter rm_x;
  log_x.serialize(rm_x);
  const auto receive = [&](OptTrack& site, const WriteId& id, const serial::Bytes& meta) {
    const auto p = make_pending(site, 0, 0, id, d, meta);
    ASSERT_TRUE(site.ready(*p));
    site.apply(*p);
    EXPECT_EQ(site.last_write_buffers(0).first, 0u) << "an SM leaves only bytes";
    EXPECT_GE(site.last_write_buffers(0).second, meta.size());
  };
  const auto served = [](const OptTrack& site) {
    serial::ByteWriter rm;
    site.remote_return_meta(0, rm);
    return rm.take();
  };

  const std::function<void(OptTrack&)> first_uses[] = {
      [&](OptTrack& site) {  // a local read merges the log
        KsLog expected = site.log();
        std::vector<WriteClock> applied;
        for (SiteId j = 0; j < kN; ++j) applied.push_back(site.applied_clock(j));
        expected.merge_and_clean(log_x, 1, applied, {});
        site.local_read(0);
        EXPECT_EQ(site.log(), expected);
      },
      [&](OptTrack& site) { EXPECT_EQ(served(site), rm_x.bytes()); },  // an FM serve
      [&](OptTrack& site) {  // a live-sampler tick
        EXPECT_EQ(site.local_meta_bytes(), site.log().wire_bytes(serial::ClockWidth::k4Bytes) +
                                               kN * 4 +
                                               log_x.wire_bytes(serial::ClockWidth::k4Bytes));
      },
      [&](OptTrack& site) { EXPECT_EQ(*site.last_write_log(0), log_x); },
  };
  for (const auto& first_use : first_uses) {
    OptTrack s1(1, kN);
    receive(s1, wx, mx);
    first_use(s1);
    EXPECT_GT(s1.last_write_buffers(0).first, 0u);
    EXPECT_EQ(s1.last_write_buffers(0).second, 0u) << "a decoded slot keeps no bytes";
    EXPECT_EQ(*s1.last_write_log(0), log_x);
    EXPECT_EQ(served(s1), rm_x.bytes());
  }

  // An SM over a decoded slot, and one over a slot still in bytes.
  for (const bool decode_first : {true, false}) {
    OptTrack s1(1, kN);
    receive(s1, wx, mx);
    if (decode_first) {
      ASSERT_NE(s1.last_write_log(0), nullptr);
    }
    receive(s1, wy, my);
    EXPECT_EQ(*s1.last_write_log(0), eager(wy, my));
  }

  // A local write over a slot still in bytes.
  OptTrack s1(1, kN);
  receive(s1, wx, mx);
  serial::ByteWriter meta;
  s1.local_write(0, Value{2, 0}, d, meta);
  EXPECT_GT(s1.last_write_buffers(0).first, 0u);
  EXPECT_EQ(s1.last_write_buffers(0).second, 0u);
  EXPECT_EQ(*s1.last_write_log(0), s1.log());
}

TEST(OptTrack, LogStaysBoundedUnderManyWrites) {
  // Repeated writes to the same variables with overlapping replica sets
  // must not grow the log: condition (2) + purge keep at most a handful of
  // entries per writer.
  OptTrack p(0, kN);
  WriteId id;
  for (int i = 0; i < 200; ++i) {
    write_at(p, static_cast<VarId>(i % 3), dests({0, 1, 2}), &id);
  }
  EXPECT_LE(p.log().size(), 3u);
}

TEST(OptTrackDeathTest, ApplyWhenNotReadyPanics) {
  OptTrack a(0, kN), b(1, kN);
  const DestSet d = dests({0, 1});
  WriteId w1, w2;
  write_at(a, 0, d, &w1);
  const auto m2 = write_at(a, 0, d, &w2);
  const auto p2 = make_pending(b, 0, 0, w2, d, m2);
  EXPECT_DEATH(b.apply(*p2), "activation predicate");
}

}  // namespace
}  // namespace causim::causal
