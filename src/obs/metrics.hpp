// Unified metrics registry (ISSUE 1 tentpole, half 2).
//
// Named, label-tagged counters / gauges / histograms that every subsystem
// (engine, RNIC, fabric, SoC DMA, Comch, buffer pools, DWRR) reports into,
// replacing the ad-hoc per-bench counter plumbing. Instruments are created
// on first use and live for the Registry's lifetime, so hot paths can cache
// the returned reference and record with a single add. Snapshots are
// deterministic: instruments are stored in lexicographic key order, and the
// JSON/CSV dumps contain no wall-clock state — two identical simulated runs
// produce byte-identical files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace pd::obs {

/// Monotonic event count (messages sent, drops, cache misses).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Snapshot-style assignment, for exporting counters kept elsewhere.
  void set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (queue depth, active QPs, pool occupancy).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution of nanosecond durations, backed by the HDR-style
/// sim::LatencyHistogram (per-hop latencies, DMA transfer times).
class Histogram {
 public:
  void record(sim::Duration ns) { hist_.record(ns); }
  void merge(const Histogram& other) { hist_.merge(other.hist_); }
  [[nodiscard]] const sim::LatencyHistogram& hist() const { return hist_; }

 private:
  sim::LatencyHistogram hist_;
};

/// Builds the canonical instrument key `name{labels}` (plain `name` when no
/// labels). Labels are a caller-formatted `k=v,k=v` string; callers are
/// expected to pass them pre-sorted when ordering matters for dedup.
std::string metric_key(std::string_view name, std::string_view labels);

/// Format a double without locale surprises and without trailing noise
/// ("12", "12.5", "0.0312"). Deterministic across runs; NaN prints "null".
std::string fmt_double(double v);

/// Escape a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

/// RFC 4180 CSV field: returned verbatim unless it contains a comma,
/// quote, or newline, in which case it is double-quoted with embedded
/// quotes doubled. Label values with commas (`pool{node=1,tenant=7}`)
/// would otherwise shift every following column.
std::string csv_field(std::string_view s);

/// Split one CSV line (no trailing newline) into fields, undoing
/// csv_field()'s quoting. The inverse used by the round-trip tests and
/// by tools that re-read our own exports.
std::vector<std::string> parse_csv_line(std::string_view line);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view labels = {});

  [[nodiscard]] bool has(std::string_view name,
                         std::string_view labels = {}) const;
  /// Lookup without creation; throws CheckFailure when absent.
  [[nodiscard]] const Counter& counter_at(std::string_view name,
                                          std::string_view labels = {}) const;
  [[nodiscard]] const Histogram& histogram_at(
      std::string_view name, std::string_view labels = {}) const;

  [[nodiscard]] std::size_t size() const { return instruments_.size(); }
  void reset();

  /// Fold `other` into this registry: counters add, gauges add, histograms
  /// merge. Snapshot ordering is by instrument key (the map's
  /// lexicographic order), NOT registration order, so merging shard
  /// registries in any order yields byte-identical exports.
  void merge_from(const Registry& other);

  /// Deterministic snapshot: one JSON object keyed by instrument name.
  /// Counters/gauges dump scalars; histograms dump
  /// {count,min,max,mean,p50,p90,p99,p999}.
  [[nodiscard]] std::string to_json() const;
  /// Flat CSV: key,kind,count,min,max,mean,p50,p90,p99,p999 (scalar kinds
  /// fill `mean` and leave the quantile columns empty).
  [[nodiscard]] std::string to_csv() const;
  void write_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

 private:
  struct Instrument {
    // Exactly one is set, per kind.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& at_or_create(std::string_view name, std::string_view labels);

  std::map<std::string, Instrument> instruments_;
};

}  // namespace pd::obs
