// Unit tests for the seeded PRNG and distribution samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace causim::sim {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u32() == b.next_u32() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Pcg32 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Pcg32 rng(3);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(10, 14);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 14);
    ++counts[v - 10];
  }
  for (const int c : counts) EXPECT_GT(c, 800);  // ~1000 each
}

TEST(Rng, UniformIntDegenerateRange) {
  Pcg32 rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, BernoulliMatchesProbability) {
  Pcg32 rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  Pcg32 r2(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r2.bernoulli(0.0));
    EXPECT_TRUE(r2.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyRight) {
  Pcg32 rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / 20000, 5.0, 0.3);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Pcg32 root(5);
  Pcg32 a = root.split();
  Pcg32 b = root.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u32() == b.next_u32() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  Pcg32 rng(17);
  std::array<int, 10> counts{};
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Zipf, SkewFavorsLowRanks) {
  const ZipfSampler zipf(100, 1.0);
  Pcg32 rng(19);
  std::array<int, 100> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[9] * 4);  // 1/1 vs 1/10 weights
  EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, SamplesStayInDomain) {
  const ZipfSampler zipf(7, 2.0);
  Pcg32 rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(rng), 7u);
}

TEST(Zipf, ProbabilityMatchesAnalyticWeights) {
  // The sampler's per-rank mass (the CDF increment the inversion assigns)
  // must equal the analytic (k+1)^-s / H(n, s) up to accumulated rounding,
  // and must sum to one exactly (the CDF is pinned to 1 at the top).
  const std::uint32_t n = 200;
  const double s = 0.99;
  const ZipfSampler zipf(n, s);
  EXPECT_EQ(zipf.domain(), n);
  double harmonic = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    harmonic += 1.0 / std::pow(static_cast<double>(k + 1), s);
  }
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const double analytic = 1.0 / std::pow(static_cast<double>(k + 1), s) / harmonic;
    EXPECT_NEAR(zipf.probability(k), analytic, 1e-12) << "rank " << k;
    total += zipf.probability(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, FrequencyRatiosFollowTheHarmonicLaw) {
  // Property test: sampled frequencies must track probability(k), and the
  // rank-to-rank frequency *ratios* must follow (j+1)^s / (k+1)^s — the
  // law the workload generators rely on for popularity skew. Tolerances
  // are 4-sigma binomial bands (the generator is deterministic, so this
  // cannot flake).
  const std::uint32_t n = 50;
  const double s = 1.2;
  const ZipfSampler zipf(n, s);
  Pcg32 rng(29);
  const int samples = 400'000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < samples; ++i) ++counts[zipf.sample(rng)];
  for (const std::uint32_t k : {0u, 1u, 2u, 4u, 9u, 19u, 49u}) {
    const double p = zipf.probability(k);
    const double sigma = std::sqrt(p * (1.0 - p) / samples);
    EXPECT_NEAR(static_cast<double>(counts[k]) / samples, p, 4.0 * sigma)
        << "rank " << k;
  }
  for (const std::uint32_t k : {1u, 4u, 9u}) {
    const double measured =
        static_cast<double>(counts[0]) / static_cast<double>(counts[k]);
    const double analytic = std::pow(static_cast<double>(k + 1), s);
    EXPECT_NEAR(measured / analytic, 1.0, 0.15) << "rank ratio 0:" << k;
  }
}

TEST(Zipf, GuideTableDrawsMatchAFullBinarySearch) {
  // The rank a draw returns must be std::lower_bound's over the whole CDF
  // for every u — seeded schedules depend on it. Probed with random draws,
  // every bucket edge k / 2^16 (the edges of every table size) and each
  // CDF value, each also one ulp either side.
  const auto expect_rank = [](const ZipfSampler& zipf, double u) {
    if (!(u >= 0.0 && u < 1.0)) return;
    const std::vector<double>& cdf = zipf.cdf();
    const auto expected =
        static_cast<std::uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ASSERT_EQ(zipf.rank(u), expected) << "u = " << u;
  };
  const auto around = [&](const ZipfSampler& zipf, double u) {
    expect_rank(zipf, u);
    expect_rank(zipf, std::nextafter(u, 0.0));
    expect_rank(zipf, std::nextafter(u, 1.0));
  };
  for (const std::uint32_t n : {1u, 2u, 100u, 1000000u}) {
    for (const double s : {0.0, 0.99, 2.0}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", s = " + std::to_string(s));
      const ZipfSampler zipf(n, s);
      Pcg32 rng(n + static_cast<std::uint64_t>(s * 100));
      for (int i = 0; i < 1000000; ++i) ASSERT_NO_FATAL_FAILURE(expect_rank(zipf, rng.uniform()));
      for (std::uint32_t k = 0; k <= (1u << 16); ++k) {
        ASSERT_NO_FATAL_FAILURE(around(zipf, static_cast<double>(k) / (1u << 16)));
      }
      for (const double c : zipf.cdf()) ASSERT_NO_FATAL_FAILURE(around(zipf, c));
    }
  }
}

}  // namespace
}  // namespace causim::sim
