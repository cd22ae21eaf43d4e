// Small, exact statistics used by the benchmark: order-statistic quantiles
// over raw samples, guarded ratios, per-request normalisation and medians.
// Header-only so the unit tests exercise exactly what the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `v` (sorted in place): the smallest sample with
/// at least q·n samples at or below it, so the result is always a value
/// that was measured. q is clamped to [0, 1]; an empty input gives 0.
template <typename T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// num / den, or 0 when den is 0 (a layer that did no work reports zero,
/// never NaN or infinity).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// A window counter (value at the window's end minus value at its start)
/// normalised per completed request.
inline double per_req(std::uint64_t at_end, std::uint64_t at_start,
                      std::uint64_t requests) {
  return ratio(static_cast<double>(at_end - at_start),
               static_cast<double>(requests));
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Sum over positions of the smallest value any run has at that position:
/// the time of a composite run that takes every slice at its fastest. All
/// runs must have the same length; 0 when there are none or they differ.
inline double sum_of_minima(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return 0.0;
  for (const auto& r : runs) {
    if (r.size() != runs.front().size()) return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < runs.front().size(); ++i) {
    double lo = runs.front()[i];
    for (const auto& r : runs) lo = std::min(lo, r[i]);
    sum += lo;
  }
  return sum;
}

}  // namespace perfbench
