#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/panic.hpp"

namespace causim::stats {

void Summary::record(double x) {
  ++count_;
  sum_ += x;
  sum_sq_ += x * x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double m = sum_ / n;
  // Population variance; adequate for reporting spread over thousands of samples.
  return std::max(0.0, sum_sq_ / n - m * m);
}

double Summary::stddev() const { return std::sqrt(variance()); }

Summary& Summary::operator+=(const Summary& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  return *this;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)), buckets_(buckets, 0) {
  CAUSIM_CHECK(hi > lo && buckets > 0, "invalid histogram range");
}

Histogram Histogram::log_scale(double lo, double hi, std::size_t buckets_per_decade) {
  CAUSIM_CHECK(lo > 0.0 && hi > lo && buckets_per_decade > 0,
               "invalid log histogram range: [" << lo << ", " << hi << ") at "
                                                << buckets_per_decade << "/decade");
  Histogram h;
  h.lo_ = lo;
  h.hi_ = hi;
  const double decades = std::log10(hi / lo);
  const auto buckets = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(buckets_per_decade) - 1e-9));
  h.edges_.reserve(buckets);
  for (std::size_t i = 0; i + 1 < buckets; ++i) {
    h.edges_.push_back(lo * std::pow(10.0, static_cast<double>(i + 1) /
                                               static_cast<double>(buckets_per_decade)));
  }
  h.edges_.push_back(hi);  // the top bucket ends exactly at hi
  h.buckets_.assign(h.edges_.size(), 0);
  return h;
}

Histogram Histogram::empty_clone() const {
  Histogram h(*this);
  std::fill(h.buckets_.begin(), h.buckets_.end(), std::uint64_t{0});
  h.overflow_ = 0;
  h.summary_ = Summary{};
  return h;
}

double Histogram::bucket_edge(std::size_t i) const {
  return edges_.empty() ? lo_ + width_ * static_cast<double>(i + 1) : edges_.at(i);
}

void Histogram::record(double x) {
  summary_.record(x);
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  std::size_t idx;
  if (edges_.empty()) {
    const double offset = std::max(0.0, x - lo_);
    idx = static_cast<std::size_t>(offset / width_);
  } else {
    // First edge strictly above x holds it; values below lo clamp into
    // bucket 0 rather than going missing.
    idx = static_cast<std::size_t>(
        std::upper_bound(edges_.begin(), edges_.end(), x) - edges_.begin());
  }
  idx = std::min(idx, buckets_.size() - 1);
  ++buckets_[idx];
}

double Histogram::quantile(double q) const {
  CAUSIM_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range: " << q);
  const std::uint64_t total = summary_.count();
  if (total == 0) return 0.0;
  // Nearest rank, computed exactly as the exact-sample oracles compute it,
  // so both pick the same sample even when q·n is a whole number.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    // Clamp the bucket's upper edge to the observed max: a lone sample in a
    // wide bucket should not report a quantile beyond anything recorded.
    if (seen >= rank) {
      return std::min(bucket_edge(i), summary_.max());
    }
  }
  // The quantile lands in the overflow bucket (x >= hi); the observed max
  // is the tightest bound the histogram still knows.
  return summary_.max();
}

Histogram& Histogram::operator+=(const Histogram& other) {
  // Element-wise edge comparison, not just the count: two log histograms
  // with equal lo/hi/size but different bucket boundaries would otherwise
  // silently misbin every merged sample. (Observed maxima are summary
  // state, not configuration — merging histograms that saw different
  // ranges is the whole point.)
  CAUSIM_CHECK(lo_ == other.lo_ && hi_ == other.hi_ &&
                   buckets_.size() == other.buckets_.size() &&
                   edges_ == other.edges_,
               "histogram merge with mismatched configuration: [" << lo_ << ", " << hi_
                   << ")/" << buckets_.size() << (is_log() ? " log" : " linear")
                   << " += [" << other.lo_ << ", " << other.hi_ << ")/"
                   << other.buckets_.size() << (other.is_log() ? " log" : " linear"));
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  overflow_ += other.overflow_;
  summary_ += other.summary_;
  return *this;
}

}  // namespace causim::stats
