// Unit tests for KsLog — the Opt-Track log with the KS pruning rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "causal/ks_log.hpp"
#include "sim/rng.hpp"

namespace causim::causal {
namespace {

constexpr SiteId kN = 8;

DestSet dests(std::initializer_list<SiteId> sites) { return DestSet(kN, sites); }

TEST(KsLog, AddAndFind) {
  KsLog log(kN);
  log.add({1, 5}, dests({2, 3}));
  ASSERT_NE(log.find({1, 5}), nullptr);
  EXPECT_EQ(*log.find({1, 5}), dests({2, 3}));
  EXPECT_EQ(log.find({1, 6}), nullptr);
  EXPECT_EQ(log.size(), 1u);
}

TEST(KsLog, AddExistingIntersectsDestLists) {
  KsLog log(kN);
  log.add({1, 5}, dests({2, 3, 4}));
  log.add({1, 5}, dests({3, 4, 5}));
  EXPECT_EQ(*log.find({1, 5}), dests({3, 4}));
}

TEST(KsLog, ObsoleteEntriesAreDiscarded) {
  // The KS implicit-tracking rule: an incoming entry older than a present
  // same-writer entry is stale and must not be (re)added.
  KsLog log(kN);
  log.add({1, 9}, dests({2}));
  log.add({1, 5}, dests({3, 4}));
  EXPECT_EQ(log.find({1, 5}), nullptr);
  EXPECT_EQ(log.size(), 1u);
  // A different writer's older clock is unaffected.
  log.add({2, 5}, dests({3}));
  EXPECT_NE(log.find({2, 5}), nullptr);
}

TEST(KsLog, NewerEntriesAlwaysEnter) {
  KsLog log(kN);
  log.add({1, 5}, dests({2}));
  log.add({1, 9}, dests({3}));
  EXPECT_NE(log.find({1, 5}), nullptr);
  EXPECT_NE(log.find({1, 9}), nullptr);
}

TEST(KsLog, MergeCombinesBothRules) {
  KsLog a(kN);
  a.add({1, 5}, dests({2, 3}));
  a.add({2, 1}, dests({4}));

  KsLog b(kN);
  b.add({1, 2}, dests({7}));     // obsolete at merge time: a has (1,5)
  b.add({1, 5}, dests({3, 6}));  // intersects to {3}
  b.add({3, 4}, dests({0}));     // new writer: added

  a.merge(b);
  EXPECT_EQ(*a.find({1, 5}), dests({3}));
  EXPECT_EQ(a.find({1, 2}), nullptr);
  EXPECT_EQ(*a.find({2, 1}), dests({4}));
  EXPECT_EQ(*a.find({3, 4}), dests({0}));
}

TEST(KsLog, PruneDests) {
  KsLog log(kN);
  log.add({1, 1}, dests({2, 3, 4}));
  log.add({2, 1}, dests({3}));
  log.prune_dests(dests({3, 4}));
  EXPECT_EQ(*log.find({1, 1}), dests({2}));
  EXPECT_TRUE(log.find({2, 1})->empty());
}

TEST(KsLog, EraseDestUpTo) {
  KsLog log(kN);
  log.add({1, 3}, dests({5, 6}));
  log.add({1, 7}, dests({5, 6}));
  log.erase_dest_up_to(5, /*writer=*/1, /*clock=*/4);
  EXPECT_EQ(*log.find({1, 3}), dests({6}));   // clock 3 <= 4: pruned
  EXPECT_EQ(*log.find({1, 7}), dests({5, 6}));  // clock 7 > 4: untouched
}

TEST(KsLog, PruneApplied) {
  KsLog log(kN);
  log.add({0, 2}, dests({1, 5}));
  log.add({0, 9}, dests({5}));
  log.add({3, 1}, dests({5}));
  std::vector<WriteClock> applied(kN, 0);
  applied[0] = 4;  // writes (0, c<=4) applied at site 5
  log.prune_applied(5, applied);
  EXPECT_EQ(*log.find({0, 2}), dests({1}));
  EXPECT_EQ(*log.find({0, 9}), dests({5}));
  EXPECT_EQ(*log.find({3, 1}), dests({5}));
}

TEST(KsLog, PurgeKeepsOnlyLatestEmptyPerWriter) {
  KsLog log(kN);
  log.add({1, 1}, dests({}));
  log.add({1, 2}, dests({}));
  log.add({1, 3}, dests({4}));
  log.add({2, 1}, dests({}));
  log.purge();
  EXPECT_EQ(log.find({1, 1}), nullptr);
  EXPECT_EQ(log.find({1, 2}), nullptr);  // empty, superseded by (1,3)
  EXPECT_NE(log.find({1, 3}), nullptr);
  EXPECT_NE(log.find({2, 1}), nullptr);  // latest of writer 2: kept as marker
}

TEST(KsLog, PurgeKeepsNonEmptyOldEntries) {
  KsLog log(kN);
  log.add({1, 1}, dests({6}));
  log.add({1, 2}, dests({7}));
  log.purge();
  EXPECT_NE(log.find({1, 1}), nullptr);
  EXPECT_NE(log.find({1, 2}), nullptr);
}

TEST(KsLog, ProgramOrderPruneUsesNewerDestUnion) {
  KsLog log(kN);
  log.add({1, 1}, dests({2, 3, 4, 5}));
  log.add({1, 2}, dests({3}));
  log.add({1, 3}, dests({4}));
  log.add({2, 1}, dests({3}));  // other writer untouched
  log.prune_by_program_order();
  EXPECT_EQ(*log.find({1, 1}), dests({2, 5}));  // 3 and 4 covered by newer
  EXPECT_EQ(*log.find({1, 2}), dests({3}));     // newest-but-one keeps its own
  EXPECT_EQ(*log.find({1, 3}), dests({4}));
  EXPECT_EQ(*log.find({2, 1}), dests({3}));
}

TEST(KsLog, MaxClockOf) {
  KsLog log(kN);
  EXPECT_EQ(log.max_clock_of(1), 0u);
  log.add({1, 4}, dests({2}));
  log.add({1, 9}, dests({2}));
  log.add({2, 7}, dests({2}));
  EXPECT_EQ(log.max_clock_of(1), 9u);
  EXPECT_EQ(log.max_clock_of(2), 7u);
  EXPECT_EQ(log.max_clock_of(0), 0u);
  EXPECT_EQ(log.max_clock_of(7), 0u);
}

TEST(KsLog, SerializeRoundTripAndExactSize) {
  for (const serial::ClockWidth cw :
       {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
    KsLog log(kN);
    log.add({1, 5}, dests({2, 3}));
    log.add({4, 1}, dests({}));
    serial::ByteWriter w(cw);
    log.serialize(w);
    EXPECT_EQ(w.size(), log.wire_bytes(cw));
    serial::ByteReader r(w.bytes(), cw);
    EXPECT_EQ(KsLog::deserialize(r), log);
  }
}

TEST(KsLog, SerializedBytesArePinned) {
  // The wire bytes are the paper's metric: a golden vector per clock width.
  KsLog log(kN);
  log.add({1, 5}, dests({2, 3}));
  log.add({4, 1}, dests({}));
  log.add({7, 0x01020304}, dests({0, 7}));
  const serial::Bytes narrow = {
      8, 0, 3, 0,                          // universe, entry count
      1, 0, 5, 0, 0, 0,                    // ⟨1, 5⟩
      8, 0, 2, 0, 2, 0, 3, 0,              // {2, 3}
      4, 0, 1, 0, 0, 0,                    // ⟨4, 1⟩
      8, 0, 0, 0,                          // {}
      7, 0, 4, 3, 2, 1,                    // ⟨7, 0x01020304⟩
      8, 0, 2, 0, 0, 0, 7, 0};             // {0, 7}
  const serial::Bytes wide = {
      8, 0, 3, 0,
      1, 0, 5, 0, 0, 0, 0, 0, 0, 0,
      8, 0, 2, 0, 2, 0, 3, 0,
      4, 0, 1, 0, 0, 0, 0, 0, 0, 0,
      8, 0, 0, 0,
      7, 0, 4, 3, 2, 1, 0, 0, 0, 0,
      8, 0, 2, 0, 0, 0, 7, 0};
  for (const auto& [cw, golden] : {std::pair{serial::ClockWidth::k4Bytes, narrow},
                                   std::pair{serial::ClockWidth::k8Bytes, wide}}) {
    serial::ByteWriter w(cw);
    w.put_u8(0xEE);  // appends after what the writer already holds
    log.serialize(w);
    serial::Bytes expected = golden;
    expected.insert(expected.begin(), 0xEE);
    EXPECT_EQ(w.bytes(), expected);
    EXPECT_EQ(log.wire_bytes(cw), golden.size());
  }
}

TEST(KsLog, ForEachIteratesInWriterClockOrder) {
  KsLog log(kN);
  log.add({2, 1}, dests({}));
  log.add({1, 4}, dests({}));
  log.add({1, 9}, dests({}));
  std::vector<WriteId> order;
  log.for_each([&](const WriteId& id, const DestSet&) { order.push_back(id); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (WriteId{1, 4}));
  EXPECT_EQ(order[1], (WriteId{1, 9}));
  EXPECT_EQ(order[2], (WriteId{2, 1}));
}

TEST(KsLog, DeserializeRejectsMalformedEntries) {
  // Each body is two entries whose fields read fine but break a rule of the
  // log: the reader must latch the error, and the first entry survives.
  struct Case {
    const char* what;
    WriteId second;
    SiteId second_universe;
  };
  for (const Case& c : {Case{"out of order", {1, 2}, kN},
                        Case{"duplicate id", {2, 3}, kN},
                        Case{"universe mismatch", {3, 1}, kN + 1},
                        Case{"writer outside the universe", {kN, 1}, kN}}) {
    serial::ByteWriter w;
    w.put_u16(kN);
    w.put_u16(2);
    w.put_write_id({2, 3});
    w.put_dest_set(dests({4}));
    w.put_write_id(c.second);
    w.put_dest_set(DestSet(c.second_universe, {1}));
    serial::ByteReader r(w.bytes());
    const KsLog log = KsLog::deserialize(r);
    EXPECT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(log.size(), 1u) << c.what;
  }
}

/// An SM receipt of `bytes` at site 3 (dests {3, 5}, all rules on): the
/// receipt's scan and the decode that materializes its log must accept the
/// same inputs and stop at the same byte. True if both accepted; the decode
/// must then have produced a log sorted by id, and the scan, at a site that
/// has applied nothing, every piggybacked write that names site 3.
bool receipt_accepts(const serial::Bytes& bytes, serial::ClockWidth cw, SiteId n) {
  const DestSet sm_dests(n, {3, 5});
  const KsLog::Receipt m{WriteId{2, 40}, sm_dests, 3};
  serial::ByteReader decode_reader(bytes, cw);
  const KsLog log = KsLog::decode_applied(decode_reader, m, {}, KsLog());
  serial::ByteReader scan_reader(bytes, cw);
  std::vector<WriteId> waits_on;
  KsLog::scan_witnesses(scan_reader, m, std::vector<WriteClock>(n, 0), waits_on);
  EXPECT_EQ(scan_reader.ok(), decode_reader.ok());
  if (!scan_reader.ok() || !decode_reader.ok()) return false;
  EXPECT_EQ(scan_reader.remaining(), decode_reader.remaining());
  std::vector<WriteId> ids;
  log.for_each([&](const WriteId& id, const DestSet&) { ids.push_back(id); });
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) ==
              ids.end());
  serial::ByteReader r(bytes, cw);
  std::vector<WriteId> naming_self;
  KsLog::deserialize(r).for_each([&](const WriteId& id, const DestSet& d) {
    if (d.contains(3) && id.clock > 0) naming_self.push_back(id);
  });
  EXPECT_EQ(waits_on, naming_self);
  return true;
}

TEST(KsLog, DecodeAppliedRejectsWhatDeserializeRejects) {
  struct Case {
    const char* what;
    WriteId second;
    SiteId second_universe;
  };
  for (const Case& c : {Case{"out of order", {1, 2}, kN},
                        Case{"duplicate id", {2, 3}, kN},
                        Case{"universe mismatch", {3, 1}, kN + 1},
                        Case{"writer outside the universe", {kN, 1}, kN}}) {
    serial::ByteWriter w;
    w.put_u16(kN);
    w.put_u16(2);
    w.put_write_id({2, 3});
    w.put_dest_set(dests({4}));
    w.put_write_id(c.second);
    w.put_dest_set(DestSet(c.second_universe, {1}));
    EXPECT_FALSE(receipt_accepts(w.bytes(), serial::ClockWidth::k4Bytes, kN)) << c.what;
  }
  // A log of another universe than the SM's destination set.
  serial::ByteWriter foreign;
  KsLog(kN + 1).serialize(foreign);
  EXPECT_FALSE(receipt_accepts(foreign.bytes(), serial::ClockWidth::k4Bytes, kN));
  // A count beyond the remaining bytes.
  serial::ByteWriter overcount;
  overcount.put_u16(kN);
  overcount.put_u16(1000);
  EXPECT_FALSE(receipt_accepts(overcount.bytes(), serial::ClockWidth::k4Bytes, kN));
  // A dest list counting more members than its universe holds.
  serial::ByteWriter crowded;
  crowded.put_u16(kN);
  crowded.put_u16(1);
  crowded.put_write_id({2, 3});
  crowded.put_u16(kN);
  crowded.put_u16(kN + 1);
  for (SiteId s = 0; s <= kN; ++s) crowded.put_u16(s % kN);
  EXPECT_FALSE(receipt_accepts(crowded.bytes(), serial::ClockWidth::k4Bytes, kN));
  // A member outside the universe.
  serial::ByteWriter member;
  member.put_u16(kN);
  member.put_u16(1);
  member.put_write_id({2, 3});
  member.put_u16(kN);
  member.put_u16(1);
  member.put_u16(kN);
  EXPECT_FALSE(receipt_accepts(member.bytes(), serial::ClockWidth::k4Bytes, kN));
  // An entry cut short inside its dest list.
  serial::ByteWriter truncated;
  truncated.put_u16(kN);
  truncated.put_u16(1);
  truncated.put_write_id({2, 3});
  truncated.put_u16(kN);
  truncated.put_u16(2);
  truncated.put_u16(1);
  EXPECT_FALSE(receipt_accepts(truncated.bytes(), serial::ClockWidth::k4Bytes, kN));
  // A well-formed log is accepted by both.
  serial::ByteWriter good;
  good.put_u16(kN);
  good.put_u16(2);
  good.put_write_id({2, 3});
  good.put_dest_set(dests({3, 4}));
  good.put_write_id({4, 1});
  good.put_dest_set(dests({1}));
  EXPECT_TRUE(receipt_accepts(good.bytes(), serial::ClockWidth::k4Bytes, kN));
}

/// Decodes `bytes` as a KS log. A rejected decode must latch the reader's
/// error; an accepted one must hold ids in strictly increasing order and
/// survive its own round trip.
bool decode_is_well_formed(const serial::Bytes& bytes, serial::ClockWidth cw) {
  serial::ByteReader r(bytes, cw);
  const KsLog log = KsLog::deserialize(r);
  if (!r.ok()) return false;
  std::vector<WriteId> ids;
  log.for_each([&](const WriteId& id, const DestSet&) { ids.push_back(id); });
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) ==
              ids.end());
  serial::ByteWriter w(cw);
  log.serialize(w);
  serial::ByteReader again(w.bytes(), cw);
  EXPECT_EQ(KsLog::deserialize(again), log);
  EXPECT_TRUE(again.ok() && again.done());
  return true;
}

TEST(KsLogFuzz, TruncationAndBitFlipsNeverCrash) {
  std::vector<KsLog> corpus;
  {
    KsLog two(kN);
    two.add({1, 5}, dests({2, 3}));
    two.add({4, 1}, dests({}));
    corpus.push_back(two);

    KsLog busy(kN);
    for (SiteId w = 0; w < kN; ++w) {
      busy.add({w, 7}, dests({static_cast<SiteId>((w + 1) % kN)}));
      busy.add({w, 9}, DestSet::all(kN));
    }
    corpus.push_back(busy);

    KsLog wide(200);  // dest sets stored on the heap
    wide.add({3, 1}, DestSet(200, {0, 130, 199}));
    wide.add({150, 2}, DestSet(200, {64, 128}));
    corpus.push_back(wide);
  }

  sim::Pcg32 rng(2024);
  for (const serial::ClockWidth cw :
       {serial::ClockWidth::k4Bytes, serial::ClockWidth::k8Bytes}) {
    for (const KsLog& log : corpus) {
      serial::ByteWriter w(cw);
      log.serialize(w);
      const serial::Bytes& bytes = w.bytes();
      const SiteId n = log.universe_size();
      ASSERT_TRUE(decode_is_well_formed(bytes, cw));
      ASSERT_TRUE(receipt_accepts(bytes, cw, n));
      // Every strict prefix is short of the entries its count promises.
      for (std::size_t len = 0; len < bytes.size(); ++len) {
        const serial::Bytes head(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(decode_is_well_formed(head, cw)) << "prefix of " << len;
        EXPECT_FALSE(receipt_accepts(head, cw, n)) << "prefix of " << len;
      }
      // Random byte flips, 1–4 at a time.
      for (int trial = 0; trial < 500; ++trial) {
        serial::Bytes mutated = bytes;
        const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
        for (int f = 0; f < flips; ++f) {
          const auto pos = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
          mutated[pos] = static_cast<std::uint8_t>(rng.next_u32());
        }
        (void)decode_is_well_formed(mutated, cw);
        (void)receipt_accepts(mutated, cw, n);
      }
    }
  }
}

}  // namespace
}  // namespace causim::causal
