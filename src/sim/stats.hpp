// Measurement primitives: HDR-style latency histogram and fixed-interval
// time series, used by every benchmark harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace pd::sim {

/// Log-linear histogram of nanosecond latencies (HdrHistogram-style):
/// 2^k..2^(k+1) is split into 64 linear sub-buckets, giving <=1.6% relative
/// quantile error with O(1) record cost and a few KiB of memory.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(Duration latency_ns);
  void merge(const LatencyHistogram& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] Duration min() const;
  [[nodiscard]] Duration max() const { return max_; }
  [[nodiscard]] double mean_ns() const;
  /// q in [0, 1]; returns an upper bound of the bucket containing the
  /// q-quantile, never above max(). quantile(0.5) is the median. Values of
  /// q outside [0, 1] (including NaN) are clamped; an empty histogram
  /// reports 0 for every quantile. quantile(1.0) >= every recorded value.
  [[nodiscard]] Duration quantile(double q) const;

  [[nodiscard]] std::string summary() const;  // human-readable one-liner

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static std::size_t bucket_index(Duration v);
  static Duration bucket_upper_bound(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  Duration min_ = 0;
  Duration max_ = 0;
  double sum_ns_ = 0.0;
};

/// Accumulates samples into fixed-width time buckets; used for RPS and
/// utilization time series (Figs. 14 & 15).
class TimeSeries {
 public:
  TimeSeries(Duration bucket_width, std::string name = {});

  /// Add `value` to the bucket containing time `t`.
  void add(TimePoint t, double value);
  /// Record one occurrence (e.g. one completed request) at time `t`.
  void increment(TimePoint t) { add(t, 1.0); }

  [[nodiscard]] Duration bucket_width() const { return width_; }
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] double bucket_value(std::size_t i) const;
  /// Value normalized to a per-second rate (for RPS plots).
  [[nodiscard]] double rate_per_sec(std::size_t i) const;
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  Duration width_;
  std::string name_;
  std::vector<double> buckets_;
};

}  // namespace pd::sim
