// Unit tests for the statistics pipeline: message accounting, summaries,
// histograms and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "stats/message_stats.hpp"
#include "stats/table.hpp"

namespace causim::stats {
namespace {

TEST(MessageStats, RecordsPerKind) {
  MessageStats s;
  s.record(MessageKind::kSM, 10, 100, 1000);
  s.record(MessageKind::kSM, 10, 200, 0);
  s.record(MessageKind::kFM, 8, 0, 0);
  s.record(MessageKind::kRM, 12, 50, 500);

  EXPECT_EQ(s.of(MessageKind::kSM).count, 2u);
  EXPECT_EQ(s.of(MessageKind::kSM).meta_bytes, 300u);
  EXPECT_EQ(s.of(MessageKind::kSM).overhead_bytes(), 320u);
  EXPECT_DOUBLE_EQ(s.of(MessageKind::kSM).avg_overhead(), 160.0);
  EXPECT_EQ(s.of(MessageKind::kFM).overhead_bytes(), 8u);
  EXPECT_EQ(s.total().count, 4u);
  EXPECT_EQ(s.total().payload_bytes, 1500u);
  EXPECT_EQ(s.total_overhead_bytes(), 320u + 8u + 62u);
}

TEST(MessageStats, MergeAndReset) {
  MessageStats a, b;
  a.record(MessageKind::kSM, 1, 2, 3);
  b.record(MessageKind::kSM, 10, 20, 30);
  b.record(MessageKind::kRM, 5, 5, 5);
  a += b;
  EXPECT_EQ(a.of(MessageKind::kSM).count, 2u);
  EXPECT_EQ(a.total().count, 3u);
  a.reset();
  EXPECT_EQ(a.total().count, 0u);
}

TEST(MessageStats, EmptyAverageIsZero) {
  const MessageStats s;
  EXPECT_DOUBLE_EQ(s.of(MessageKind::kSM).avg_overhead(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.record(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-9);
}

TEST(Summary, MergeMatchesCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.record(i);
    all.record(i);
  }
  for (int i = 10; i < 30; ++i) {
    b.record(i);
    all.record(i);
  }
  a += b;
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, EmptyIsZero) {
  const Summary s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Histogram, QuantilesWithinResolution) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50, 2);
  EXPECT_NEAR(h.quantile(0.9), 90, 2);
  EXPECT_NEAR(h.quantile(0.0), 1, 1);
}

TEST(Histogram, OverflowGoesToMax) {
  Histogram h(0, 10, 10);
  h.record(5);
  h.record(500);
  EXPECT_DOUBLE_EQ(h.max(), 500);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500);
}

TEST(Histogram, EmptyQuantileIsZero) {
  const Histogram h(0, 10, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, MergeMatchesCombinedStream) {
  Histogram a(0, 100, 100), b(0, 100, 100), all(0, 100, 100);
  for (int i = 0; i < 50; ++i) {
    a.record(i);
    all.record(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.record(i + 200);  // lands in overflow
    all.record(i + 200);
  }
  a += b;
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.overflow(), all.overflow());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, P999TracksTail) {
  Histogram h(0, 10000, 10000);
  for (int i = 0; i < 999; ++i) h.record(10);
  h.record(9000);
  // One sample in a thousand sits at 9000. p999 is the 999th smallest
  // (nearest rank ⌈0.999·1000⌉), still the bulk; only q = 1 sees the
  // outlier.
  EXPECT_NEAR(h.p99(), 10, 2);
  EXPECT_NEAR(h.p999(), 10, 2);
  EXPECT_NEAR(h.quantile(1.0), 9000, 10);
  // A second outlier puts the 1000th of 1001 samples in the tail, and p999
  // reaches it.
  h.record(9000);
  EXPECT_NEAR(h.p99(), 10, 2);
  EXPECT_NEAR(h.p999(), 9000, 10);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
}

TEST(Histogram, LogScaleBucketEdges) {
  const Histogram h = Histogram::log_scale(1.0, 1000.0, 4);
  EXPECT_TRUE(h.is_log());
  // 3 decades × 4 buckets/decade = 12 geometric buckets; the final edge
  // is forced to hi exactly.
  EXPECT_EQ(h.bucket_count(), 12u);
  EXPECT_DOUBLE_EQ(h.bucket_edge(h.bucket_count() - 1), 1000.0);
  // Edges grow by 10^(1/4) each step.
  const double ratio = std::pow(10.0, 0.25);
  EXPECT_NEAR(h.bucket_edge(0), ratio, 1e-9);
  EXPECT_NEAR(h.bucket_edge(1), ratio * ratio, 1e-9);
}

TEST(Histogram, LogScaleRecordsBelowLoAndAboveHi) {
  Histogram h = Histogram::log_scale(1.0, 100.0, 4);
  h.record(0.001);  // clamps into the first bucket
  h.record(1e9);    // overflow
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_LE(h.quantile(0.25), std::pow(10.0, 0.25));
}

TEST(Histogram, LogScaleMergeRequiresMatchingShape) {
  Histogram log4 = Histogram::log_scale(1.0, 100.0, 4);
  Histogram log4b = Histogram::log_scale(1.0, 100.0, 4);
  log4.record(5);
  log4b.record(50);
  log4 += log4b;  // identical configs merge fine
  EXPECT_EQ(log4.count(), 2u);
}

TEST(HistogramDeathTest, LogLinearMergePanics) {
  Histogram log_h = Histogram::log_scale(1.0, 100.0, 4);
  Histogram linear(1.0, 100.0, 8);
  EXPECT_DEATH(log_h += linear, "mismatched configuration");
}

TEST(HistogramDeathTest, ShiftedLogEdgesMergePanics) {
  // Same bucket *count* (two decades at 4/decade), different bucket
  // *boundaries*: a size-only merge check would silently misbin every
  // sample. The element-wise edge comparison must reject it.
  Histogram a = Histogram::log_scale(1.0, 100.0, 4);
  Histogram b = Histogram::log_scale(2.0, 200.0, 4);
  EXPECT_DEATH(a += b, "mismatched configuration");
}

TEST(Histogram, MergeWithDifferentObservedMaximaIsExact) {
  // Observed min/max are summary state, not configuration: merging
  // histograms that saw disjoint ranges (the per-site latency lanes) must
  // combine into exactly the histogram that recorded every sample
  // directly — counts, overflow, extrema, and every quantile.
  Histogram small = Histogram::log_scale(1.0, 1e8, 16);
  Histogram large = Histogram::log_scale(1.0, 1e8, 16);
  Histogram oracle = Histogram::log_scale(1.0, 1e8, 16);
  for (int i = 1; i <= 500; ++i) {
    const double v = 1.5 * i;  // 1.5 .. 750: a low-latency site
    small.record(v);
    oracle.record(v);
  }
  for (int i = 1; i <= 300; ++i) {
    const double v = 1e4 * i;  // 10 ms .. 3 s: a cross-WAN site
    large.record(v);
    oracle.record(v);
  }
  large.record(5e9);  // one overflow outlier
  oracle.record(5e9);

  small += large;
  EXPECT_EQ(small.count(), oracle.count());
  EXPECT_EQ(small.overflow(), oracle.overflow());
  EXPECT_DOUBLE_EQ(small.max(), oracle.max());
  EXPECT_DOUBLE_EQ(small.min(), oracle.min());
  EXPECT_DOUBLE_EQ(small.mean(), oracle.mean());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(small.quantile(q), oracle.quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, EmptyCloneCopiesShapeNotCounts) {
  Histogram h = Histogram::log_scale(1.0, 1e6, 16);
  for (int i = 1; i < 100; ++i) h.record(i * 37.0);
  const Histogram clone = h.empty_clone();
  EXPECT_TRUE(clone.is_log());
  EXPECT_EQ(clone.count(), 0u);
  EXPECT_EQ(clone.bucket_count(), h.bucket_count());
  Histogram sum = clone;
  sum += h;  // shape-compatible with the original
  EXPECT_EQ(sum.count(), h.count());
}

// Property test — the streamed log-bucketed quantile against an exact
// sorted-sample oracle. A geometric histogram's quantile can only err by
// the current bucket's width, so for every q the streamed estimate must
// sit in [x, max(x·ratio, lo·ratio)] where x is the exact order statistic
// and ratio = 10^(1/buckets_per_decade).
TEST(Histogram, LogScaleQuantileMatchesSortedOracle) {
  const double lo = 1.0, hi = 1e7;
  const std::size_t bpd = 16;
  const double ratio = std::pow(10.0, 1.0 / static_cast<double>(bpd));
  const auto expect_matches_oracle = [&](std::vector<double> samples,
                                         const std::string& what) {
    Histogram h = Histogram::log_scale(lo, hi, bpd);
    for (const double x : samples) h.record(x);
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    for (const double q : {0.05, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
      const double exact = samples[std::min(samples.size() - 1,
                                            rank == 0 ? 0 : rank - 1)];
      const double streamed = h.quantile(q);
      EXPECT_GE(streamed, exact - 1e-9) << "q=" << q << " " << what;
      EXPECT_LE(streamed, std::max(exact * ratio, lo * ratio) + 1e-9)
          << "q=" << q << " " << what << " exact=" << exact;
    }
    // And the histogram's max is exact, not bucketed.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back()) << what;
  };
  // q·n whole, with the rank-th and next samples either side of the 1000
  // bucket edge: the streamed quantile must pick the rank-th, not the next.
  expect_matches_oracle({500, 998.97, 1001, 5000}, "edge");
  std::mt19937_64 rng(0xfeedbeef);
  // Long-tailed latency-like data: log-normal, occasionally huge.
  std::lognormal_distribution<double> body(3.0, 1.7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> samples;
    const int n = 2000 + trial * 1777;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) samples.push_back(std::min(body(rng), hi - 1.0));
    expect_matches_oracle(std::move(samples), "trial=" + std::to_string(trial));
  }
}

TEST(HistogramDeathTest, MergeWithMismatchedConfigPanics) {
  Histogram a(0, 10, 10);
  Histogram b(0, 20, 10);
  EXPECT_DEATH(a += b, "mismatched configuration");
}

TEST(HistogramDeathTest, QuantileOutOfRangePanics) {
  const Histogram h(0, 10, 10);
  EXPECT_DEATH(h.quantile(1.5), "quantile out of range");
}

TEST(MessageStats, CoversEveryMessageKind) {
  // Regression for the hard-coded 3-kind array: `of` and `total` must
  // account for every enumerator in kAllMessageKinds.
  MessageStats s;
  for (const MessageKind kind : kAllMessageKinds) s.record(kind, 1, 2, 3);
  for (const MessageKind kind : kAllMessageKinds) {
    EXPECT_EQ(s.of(kind).count, 1u) << to_string(kind);
  }
  EXPECT_EQ(s.total().count, std::size(kAllMessageKinds));
}

TEST(Table, RendersAlignedAndCsv) {
  Table t("Title");
  t.set_columns({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"10", "20", "30"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("| 10"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,long-header,c\n1,2,3\n10,20,30\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::integer(1234567), "1,234,567");
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::integer(0), "0");
}

TEST(TableDeathTest, RowWidthMismatchPanics) {
  Table t;
  t.set_columns({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "cells");
}

}  // namespace
}  // namespace causim::stats
