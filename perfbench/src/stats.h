// Order statistics for host-time samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace pb {

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return n - std::min(n, static_cast<std::size_t>(rank));
}

/// A tail percentile is reported only with at least ten samples beyond
/// it; otherwise it is a guess about one or two outliers.
inline std::optional<double> tail_quantile(const std::vector<double>& v,
                                           double q) {
  if (samples_beyond(v.size(), q) < 10) return std::nullopt;
  return quantile(v, q);
}

}  // namespace pb
