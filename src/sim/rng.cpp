#include "sim/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace causim::sim {

ZipfSampler::ZipfSampler(std::uint32_t n, double s) {
  CAUSIM_CHECK(n > 0, "ZipfSampler needs a non-empty domain");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  CAUSIM_CHECK(acc > 0.0 && std::isfinite(acc),
               "Zipf normalization H(" << n << ", " << s << ") = " << acc);
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
  // Normalization sanity: the CDF must be monotone with every rank
  // carrying non-negative mass, or inversion misassigns probability.
  CAUSIM_CHECK(std::is_sorted(cdf_.begin(), cdf_.end()),
               "Zipf CDF not monotone after normalization");
  // A power-of-two bucket count makes b / B and u * B exact in double, so
  // a draw's bucket b satisfies b / B <= u < (b + 1) / B exactly.
  const std::uint32_t buckets = std::bit_ceil(std::min<std::uint32_t>(n, 1u << 16));
  guide_.resize(buckets + 1);
  std::uint32_t k = 0;
  for (std::uint32_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) / buckets;
    while (cdf_[k] < edge) ++k;  // ends by cdf_.back() == 1.0 >= edge
    guide_[b] = k;
  }
}

std::uint32_t ZipfSampler::rank(double u) const {
  // lower_bound is monotone in u, so its answer for u lies between its
  // answers for the bucket's edges.
  const auto b = static_cast<std::size_t>(u * static_cast<double>(guide_.size() - 1));
  const auto first = cdf_.begin() + guide_[b];
  const auto last = cdf_.begin() + guide_[b + 1];
  return static_cast<std::uint32_t>(std::lower_bound(first, last, u) - cdf_.begin());
}

double ZipfSampler::probability(std::uint32_t k) const {
  CAUSIM_CHECK(k < cdf_.size(), "Zipf rank " << k << " outside domain " << cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace causim::sim
