// Unit tests for DestSet (destination lists / bitsets).
#include <gtest/gtest.h>

#include "common/dest_set.hpp"
#include "sim/rng.hpp"

namespace causim {
namespace {

TEST(DestSet, StartsEmpty) {
  DestSet d(10);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.count(), 0);
  EXPECT_EQ(d.universe_size(), 10);
  for (SiteId s = 0; s < 10; ++s) EXPECT_FALSE(d.contains(s));
}

TEST(DestSet, InsertEraseContains) {
  DestSet d(10);
  d.insert(3);
  d.insert(7);
  EXPECT_TRUE(d.contains(3));
  EXPECT_TRUE(d.contains(7));
  EXPECT_FALSE(d.contains(4));
  EXPECT_EQ(d.count(), 2);
  d.erase(3);
  EXPECT_FALSE(d.contains(3));
  EXPECT_EQ(d.count(), 1);
  d.erase(3);  // idempotent
  EXPECT_EQ(d.count(), 1);
}

TEST(DestSet, EraseOutOfRangeIsNoop) {
  DestSet d(4, {1, 2});
  d.erase(99);
  EXPECT_EQ(d.count(), 2);
}

TEST(DestSet, AllClearsTailBits) {
  for (const SiteId n : {1, 5, 63, 64, 65, 128, 130}) {
    const DestSet d = DestSet::all(n);
    EXPECT_EQ(d.count(), n) << "n=" << n;
    EXPECT_TRUE(d.contains(n - 1));
    EXPECT_FALSE(d.contains(n));
  }
}

TEST(DestSet, SetOperations) {
  const DestSet a(8, {0, 1, 2, 3});
  const DestSet b(8, {2, 3, 4, 5});
  EXPECT_EQ((a | b), DestSet(8, {0, 1, 2, 3, 4, 5}));
  EXPECT_EQ((a & b), DestSet(8, {2, 3}));
  EXPECT_EQ((a - b), DestSet(8, {0, 1}));
  EXPECT_EQ((b - a), DestSet(8, {4, 5}));
}

TEST(DestSet, SubsetAndIntersects) {
  const DestSet a(8, {1, 2});
  const DestSet b(8, {1, 2, 3});
  const DestSet c(8, {4, 5});
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(DestSet(8).is_subset_of(c));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
}

TEST(DestSet, ForEachVisitsInOrder) {
  const DestSet d(80, {0, 17, 63, 64, 79});
  std::vector<SiteId> seen;
  d.for_each([&](SiteId s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<SiteId>{0, 17, 63, 64, 79}));
  EXPECT_EQ(d.to_vector(), seen);
}

TEST(DestSet, WireBytesTracksMembership) {
  DestSet d(40);
  EXPECT_EQ(d.wire_bytes(), 4u);  // universe + count
  d.insert(1);
  d.insert(2);
  EXPECT_EQ(d.wire_bytes(), 4u + 2 * 2);
  d.erase(1);
  EXPECT_EQ(d.wire_bytes(), 4u + 2);
}

TEST(DestSet, CountMatchesABitByBitCount) {
  // Random sets of every density, on both sides of each word boundary and of
  // the inline/heap boundary.
  sim::Pcg32 rng(77);
  for (const SiteId n : {1, 63, 64, 65, 127, 128, 129, 130, 200}) {
    for (int trial = 0; trial < 50; ++trial) {
      const double density = rng.uniform();
      DestSet d(n);
      for (SiteId s = 0; s < n; ++s) {
        if (rng.bernoulli(density)) d.insert(s);
      }
      SiteId members = 0;
      for (SiteId s = 0; s < n; ++s) members += d.contains(s) ? 1 : 0;
      ASSERT_EQ(d.count(), members) << "n=" << n << " trial " << trial;
    }
  }
}

TEST(DestSet, EqualityRequiresSameUniverse) {
  EXPECT_FALSE(DestSet(4) == DestSet(5));
  EXPECT_TRUE(DestSet(4, {1}) == DestSet(4, {1}));
  EXPECT_FALSE(DestSet(4, {1}) == DestSet(4, {2}));
}

// Universes on both sides of the inline/heap boundary (kInlineSites = 128).
class DestSetStorage : public ::testing::TestWithParam<SiteId> {
 protected:
  // Members at both ends and in every word.
  DestSet sample() const {
    const SiteId n = GetParam();
    DestSet d(n);
    for (SiteId s = 0; s < n; s += 61) d.insert(s);
    d.insert(n - 1);
    return d;
  }
};

TEST_P(DestSetStorage, CopyIsIndependent) {
  const DestSet original = sample();
  DestSet copy(original);
  EXPECT_EQ(copy, original);
  copy.erase(GetParam() - 1);
  EXPECT_TRUE(original.contains(GetParam() - 1));
  EXPECT_NE(copy, original);

  DestSet assigned(GetParam());
  assigned = original;
  EXPECT_EQ(assigned, original);
  assigned.insert(1);
  EXPECT_FALSE(original.contains(1));
}

TEST_P(DestSetStorage, MoveTransfersMembers) {
  const DestSet expected = sample();
  DestSet source = sample();
  DestSet moved(std::move(source));
  EXPECT_EQ(moved, expected);

  DestSet target(GetParam());
  DestSet source2 = sample();
  target = std::move(source2);
  EXPECT_EQ(target, expected);
  // A moved-from set stays usable.
  source2 = expected;
  EXPECT_EQ(source2, expected);
}

TEST_P(DestSetStorage, SelfAssignmentKeepsMembers) {
  const DestSet expected = sample();
  DestSet d = sample();
  DestSet& alias = d;
  d = alias;
  EXPECT_EQ(d, expected);
  d = std::move(alias);
  EXPECT_EQ(d, expected);
}

TEST_P(DestSetStorage, AssignmentAcrossUniverses) {
  // Every pairing of inline and heap storage, both directions.
  for (const SiteId other_n : {SiteId{10}, SiteId{128}, SiteId{129}, SiteId{300}}) {
    DestSet d = sample();
    const DestSet other = DestSet::all(other_n);
    d = other;
    EXPECT_EQ(d, other);
    EXPECT_EQ(d.count(), other_n);
    d = sample();
    EXPECT_EQ(d, sample());
    DestSet moved_in = DestSet::all(other_n);
    d = std::move(moved_in);
    EXPECT_EQ(d, other);
  }
}

TEST_P(DestSetStorage, SetOperationsMatchMemberLists) {
  const SiteId n = GetParam();
  DestSet odd(n);
  DestSet low(n);
  for (SiteId s = 0; s < n; ++s) {
    if (s % 2 == 1) odd.insert(s);
    if (s < n / 2) low.insert(s);
  }
  std::vector<SiteId> odd_low;
  std::vector<SiteId> odd_high;
  for (SiteId s = 1; s < n; s += 2) (s < n / 2 ? odd_low : odd_high).push_back(s);
  EXPECT_EQ((odd & low).to_vector(), odd_low);
  EXPECT_EQ((odd - low).to_vector(), odd_high);
  EXPECT_EQ(static_cast<std::size_t>((odd | low).count()), n / 2 + odd_high.size());
  EXPECT_TRUE((odd & low).is_subset_of(odd));
  EXPECT_TRUE(odd.intersects(low));
  EXPECT_EQ(DestSet::all(n).count(), n);
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, DestSetStorage,
                         ::testing::Values(SiteId{64}, SiteId{128}, SiteId{129},
                                           SiteId{200}));

using DestSetDeath = DestSet;

TEST(DestSetDeathTest, InsertOutOfRangePanics) {
  DestSet d(4);
  EXPECT_DEATH(d.insert(4), "outside universe");
}

TEST(DestSetDeathTest, UniverseMismatchPanics) {
  DestSet a(4);
  const DestSet b(5);
  EXPECT_DEATH(a |= b, "universe mismatch");
}

}  // namespace
}  // namespace causim
