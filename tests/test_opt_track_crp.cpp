// Unit tests for Opt-Track-CRP — the full-replication specialization with
// 2-tuple log entries, write-time log reset, and per-writer compaction.
#include <gtest/gtest.h>

#include "causal/opt_track_crp.hpp"

namespace causim::causal {
namespace {

constexpr SiteId kN = 4;

serial::Bytes write_at(OptTrackCrp& p, VarId var, WriteId* id) {
  serial::ByteWriter meta;
  *id = p.local_write(var, Value{1, 0}, DestSet::all(kN), meta);
  return meta.take();
}

std::unique_ptr<PendingUpdate> make_pending(OptTrackCrp& receiver, SiteId sender,
                                            VarId var, const WriteId& id,
                                            const serial::Bytes& meta) {
  serial::ByteReader r(meta);
  return receiver.decode_sm(SmEnvelope{sender, var, Value{1, 0}, id}, DestSet::all(kN), r);
}

TEST(OptTrackCrp, WriteResetsLogToSingleEntry) {
  OptTrackCrp p(0, kN);
  WriteId id;
  write_at(p, 0, &id);
  EXPECT_EQ(p.log_entry_count(), 1u);
  write_at(p, 1, &id);
  write_at(p, 2, &id);
  EXPECT_EQ(p.log_entry_count(), 1u);
  EXPECT_EQ(p.log(), (OptTrackCrp::Log{{0, 3}}));
}

TEST(OptTrackCrp, ReadsGrowLogByAtMostOnePerWriter) {
  OptTrackCrp a(0, kN), b(1, kN), c(2, kN);
  // b and c each write once; a applies and reads both, then d = 2.
  WriteId wb, wc;
  const auto mb = write_at(b, 0, &wb);
  const auto mc = write_at(c, 1, &wc);
  const auto pb = make_pending(a, 1, 0, wb, mb);
  ASSERT_TRUE(a.ready(*pb));
  a.apply(*pb);
  const auto pc = make_pending(a, 2, 1, wc, mc);
  ASSERT_TRUE(a.ready(*pc));
  a.apply(*pc);
  a.local_read(0);
  a.local_read(1);
  a.local_read(0);  // repeated read of the same writer adds nothing
  EXPECT_EQ(a.log_entry_count(), 2u);
  // A local write resets everything to the single new entry.
  WriteId wa;
  write_at(a, 2, &wa);
  EXPECT_EQ(a.log_entry_count(), 1u);

  // The paper's bound: at most n entries ever.
  EXPECT_LE(a.log_entry_count(), static_cast<std::size_t>(kN));
}

TEST(OptTrackCrp, SameWriterReadKeepsNewestClock) {
  OptTrackCrp a(0, kN), b(1, kN);
  WriteId w1, w2;
  const auto m1 = write_at(b, 0, &w1);
  const auto m2 = write_at(b, 1, &w2);
  const auto u1 = make_pending(a, 1, 0, w1, m1);
  a.apply(*u1);
  const auto u2 = make_pending(a, 1, 1, w2, m2);
  a.apply(*u2);
  a.local_read(0);  // (1, clock 1)
  a.local_read(1);  // (1, clock 2) supersedes
  EXPECT_EQ(a.log(), (OptTrackCrp::Log{{1, 2}}));
}

TEST(OptTrackCrp, ProgramOrderGating) {
  OptTrackCrp a(0, kN), b(1, kN);
  WriteId w1, w2;
  const auto m1 = write_at(a, 0, &w1);
  const auto m2 = write_at(a, 0, &w2);
  const auto p2 = make_pending(b, 0, 0, w2, m2);
  EXPECT_FALSE(b.ready(*p2));
  const auto p1 = make_pending(b, 0, 0, w1, m1);
  ASSERT_TRUE(b.ready(*p1));
  b.apply(*p1);
  EXPECT_TRUE(b.ready(*p2));
}

TEST(OptTrackCrp, TransitiveDependencyViaRead) {
  OptTrackCrp s0(0, kN), s1(1, kN), s2(2, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, &wx);
  const auto px1 = make_pending(s1, 0, 0, wx, mx);
  s1.apply(*px1);
  s1.local_read(0);
  const auto my = write_at(s1, 1, &wy);

  const auto py = make_pending(s2, 1, 1, wy, my);
  EXPECT_FALSE(s2.ready(*py)) << "y depends on x via s1's read";
  const auto px2 = make_pending(s2, 0, 0, wx, mx);
  s2.apply(*px2);
  EXPECT_TRUE(s2.ready(*py));
}

TEST(OptTrackCrp, NoDependencyWithoutRead) {
  OptTrackCrp s0(0, kN), s1(1, kN), s2(2, kN);
  WriteId wx, wy;
  const auto mx = write_at(s0, 0, &wx);
  const auto px1 = make_pending(s1, 0, 0, wx, mx);
  s1.apply(*px1);  // no read
  const auto my = write_at(s1, 1, &wy);
  const auto py = make_pending(s2, 1, 1, wy, my);
  EXPECT_TRUE(s2.ready(*py));
}

TEST(OptTrackCrp, SmMetaSizeIsOofD) {
  OptTrackCrp p(0, kN);
  WriteId id;
  // After a write, the next write's piggyback holds exactly 1 entry.
  write_at(p, 0, &id);
  const auto meta = write_at(p, 1, &id);
  // count u16 + one (site u16 + clock u32) entry.
  EXPECT_EQ(meta.size(), 2u + (2u + 4u));
}

TEST(OptTrackCrp, DecodeRejectsSitesOutOfRangeOrOrder) {
  // The encoder writes strictly increasing sites below n; the decoder
  // fails its reader on anything else, before ready() could index Apply.
  const auto decodes = [](std::initializer_list<std::pair<SiteId, WriteClock>> log) {
    serial::ByteWriter meta;
    meta.put_u16(static_cast<std::uint16_t>(log.size()));
    for (const auto& [site, clock] : log) {
      meta.put_site(site);
      meta.put_clock(clock);
    }
    OptTrackCrp receiver(0, kN);
    serial::ByteReader r(meta.bytes());
    receiver.decode_sm(SmEnvelope{1, 0, Value{1, 0}, WriteId{1, 1}}, DestSet::all(kN), r);
    return r.ok();
  };
  EXPECT_TRUE(decodes({}));
  EXPECT_TRUE(decodes({{0, 1}, {1, 4}, {3, 2}}));
  EXPECT_FALSE(decodes({{kN, 1}}));
  EXPECT_FALSE(decodes({{99, 1}}));
  EXPECT_FALSE(decodes({{2, 1}, {1, 1}}));
  EXPECT_FALSE(decodes({{1, 1}, {1, 2}}));
  EXPECT_FALSE(decodes({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {3, 1}}));  // count > n
}

TEST(OptTrackCrpDeathTest, RequiresFullReplication) {
  OptTrackCrp p(0, kN);
  serial::ByteWriter meta;
  EXPECT_DEATH(p.local_write(0, Value{1, 0}, DestSet(kN, {0, 1}), meta),
               "full replication");
}

TEST(OptTrackCrpDeathTest, RemoteReadsAreUnreachable) {
  OptTrackCrp p(0, kN);
  serial::ByteWriter out;
  EXPECT_DEATH(p.remote_return_meta(0, out), "fully replicated");
}

}  // namespace
}  // namespace causim::causal
