// Streaming histogram / summary statistics for scalar observations
// (log sizes, apply latencies, read latencies, …).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace causim::stats {

class Summary {
 public:
  void record(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  Summary& operator+=(const Summary& other);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width linear-bucket histogram with exact quantiles up to bucket
/// resolution; values above the range accumulate in an overflow bucket.
/// The `log_scale` factory switches to geometric (HDR-style) buckets for
/// long-tailed data such as latencies.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  /// Log-bucketed histogram over [lo, hi) with `buckets_per_decade` buckets
  /// per factor of 10 (lo must be > 0). The quantile error is bounded by one
  /// bucket ratio, 10^(1/buckets_per_decade) — e.g. ~15.5 % at 16/decade —
  /// relative, instead of the linear histogram's absolute bucket width.
  static Histogram log_scale(double lo, double hi, std::size_t buckets_per_decade);

  /// Same bucket configuration, zero counts: the prototype for mergeable
  /// accumulators that must match this histogram's binning.
  Histogram empty_clone() const;

  void record(double x);
  std::uint64_t count() const { return summary_.count(); }
  double mean() const { return summary_.mean(); }
  double min() const { return summary_.min(); }
  double max() const { return summary_.max(); }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  bool is_log() const { return !edges_.empty(); }
  /// Upper edge of bucket i (buckets span [previous edge, this edge)).
  double bucket_edge(std::size_t i) const;
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

  /// q in [0,1]; returns the upper edge of the bucket holding the
  /// nearest-rank q-quantile (the max(1, ⌈q·n⌉)-th smallest sample),
  /// clamped to the observed max. 0 when empty.
  double quantile(double q) const;

  // The conventional latency quantiles, including the p999 tail.
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  /// Merge (e.g. per-site histograms into one); panics when the (lo, hi,
  /// buckets, scale) configurations differ — misbinning would be silent
  /// otherwise.
  Histogram& operator+=(const Histogram& other);

  const Summary& summary() const { return summary_; }

 private:
  Histogram() = default;

  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 0.0;
  /// Log mode: precomputed upper bucket edges (binary-searched on record,
  /// so the hot path never touches libm); empty in linear mode.
  std::vector<double> edges_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  Summary summary_;
};

}  // namespace causim::stats
