// Pcg32 — a small, fast, seedable PRNG (PCG-XSH-RR 64/32).
//
// Simulations must be bit-reproducible from a seed across platforms, which
// rules out std::mt19937's distribution wrappers (unspecified algorithms);
// the distributions here are implemented explicitly.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/panic.hpp"

namespace causim::sim {

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1) | 1;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    const auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next_u32()) * 0x1p-32; }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    CAUSIM_CHECK(lo <= hi, "uniform_int range [" << lo << ", " << hi << "] is empty");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Lemire's bounded rejection method over 64 bits.
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * span;
    auto low = static_cast<std::uint64_t>(m);
    if (low < span) {
      const std::uint64_t threshold = -span % span;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * span;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given mean.
  double exponential(double mean) {
    double u = uniform();
    if (u <= 0.0) u = 0x1p-32;
    return -mean * std::log(u);
  }

  /// A statistically independent generator derived from this one
  /// (distinct PCG stream), for per-site RNGs.
  Pcg32 split() { return Pcg32(next_u64(), next_u64()); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Zipf(s) sampler over {0, …, n-1} via precomputed CDF inversion.
/// s = 0 degenerates to the uniform distribution.
///
/// Inversion semantics: sample() draws u in [0, 1) and returns the first
/// rank whose CDF value is >= u, so rank k owns the half-open mass
/// (cdf[k-1], cdf[k]] — exactly p_k = k^-s / H(n, s) up to the 2^-32
/// granularity of the uniform draw. Rank 0 is reachable (u = 0 maps to
/// it) and rank n-1 is reachable (cdf_.back() is pinned to 1.0, and u
/// never reaches 1.0, so lower_bound never runs off the end).
///
/// A guide table splits [0, 1) into a power-of-two number of equal buckets
/// (at most 2^16, 256 KB) and holds, per bucket edge b/B, the first rank
/// whose CDF value is >= b/B; a draw binary-searches only the CDF range
/// between its bucket's two edges, which contains lower_bound's answer.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);
  std::uint32_t sample(Pcg32& rng) const { return rank(rng.uniform()); }

  /// The first rank whose CDF value is >= u, for u in [0, 1) — what
  /// std::lower_bound over the whole CDF returns.
  std::uint32_t rank(double u) const;

  std::uint32_t domain() const { return static_cast<std::uint32_t>(cdf_.size()); }

  /// The inversion table: cdf()[k] is the probability of ranks <= k.
  const std::vector<double>& cdf() const { return cdf_; }

  /// The sampler's own probability mass for rank k (the CDF increment) —
  /// what a frequency test should compare observed counts against. Within
  /// accumulated rounding of the analytic k^-s / H(n, s).
  double probability(std::uint32_t k) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // bucket edges; guide_.size() - 1 buckets
};

}  // namespace causim::sim
