// Time-series flight recorder (ISSUE 6 tentpole).
//
// The metrics registry (ISSUE 1) answers "what happened over the whole
// run"; this layer adds the time axis: a FlightRecorder periodically
// samples gauge probes — queue depths, pool occupancy, unacked headroom,
// DWRR deficits, QP state counts, chaos fault state, core utilization —
// in *simulated* time and folds each series into a fixed-capacity bucket
// ring, so a run that transiently saturates no longer looks identical to
// one that never did.
//
// Bounded memory: each recorder series holds at most 512 buckets of
// {t0, n, min, max, sum}. When the ring fills, adjacent bucket pairs are
// merged (min of mins, max of maxes, sums add) and the per-bucket sample
// budget doubles — a run 2x longer costs zero extra memory, only 2x
// coarser buckets at the start of the timeline. Peaks survive compaction
// exactly (max is closed under merging); means are exact per bucket.
//
// Determinism: sampling is driven by scheduler background events at fixed
// multiples of the sample period, probes read only state owned by the
// recorder's own shard, and exports iterate a std::map — so the JSON/CSV
// artifacts are byte-identical across --threads 1/2/4 and make honest
// inputs for tools/report_diff.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pd::obs {

/// One downsample bucket: `n` consecutive samples starting at `t0`.
struct FlightPoint {
  sim::TimePoint t0 = 0;   ///< timestamp of the first folded sample
  std::uint32_t n = 0;     ///< samples folded into this bucket
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;        ///< mean = sum / n, exact per bucket

  [[nodiscard]] double mean() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

/// Append-only bucket ring with pair-merge compaction. Samples must
/// arrive in non-decreasing time order (each series is written from one
/// scheduler shard, which only moves forward).
class FlightSeries {
 public:
  explicit FlightSeries(std::size_t capacity);

  void record(sim::TimePoint t, double v);

  /// Fold `other`'s buckets into this series (time-ordered stable merge,
  /// this-first on ties), then compact back under capacity. Leaves
  /// `other` empty so a second merge cannot double-count.
  void absorb(FlightSeries& other);

  [[nodiscard]] const std::vector<FlightPoint>& buckets() const {
    return buckets_;
  }
  /// Total samples ever recorded (survives compaction).
  [[nodiscard]] std::uint64_t total_samples() const { return total_; }
  /// Current per-bucket sample budget (doubles on each compaction).
  [[nodiscard]] std::uint32_t samples_per_bucket() const { return merge_; }
  [[nodiscard]] double peak() const;
  [[nodiscard]] double last_mean() const;
  [[nodiscard]] std::size_t memory_bytes() const {
    return buckets_.capacity() * sizeof(FlightPoint);
  }

 private:
  void compact();

  std::vector<FlightPoint> buckets_;
  std::size_t capacity_;
  std::uint32_t merge_ = 1;
  std::uint64_t total_ = 0;
};

/// Registry of FlightSeries plus the periodic sampler that feeds them.
/// One recorder per obs::Hub: shard-local under ParallelSim (merged
/// deterministically by Cluster::merge_observability), global otherwise.
class FlightRecorder {
 public:
  /// Simulated time between sampling ticks.
  static constexpr sim::Duration kSamplePeriod = 1'000'000;  // 1 ms

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Register a gauge probe sampled on every tick. `fn` must read only
  /// state owned by this recorder's shard (the determinism rule) and
  /// outlive the recorder's sampling. Key is `name{labels}` as in the
  /// metrics registry; duplicate registration is a check failure.
  void probe(std::string_view name, std::string_view labels,
             std::function<double()> fn);

  /// Event-driven series (chaos fault state, QP transitions): callers
  /// record points directly at the moment state changes instead of
  /// waiting for the next tick. Created on first use.
  FlightSeries& series(std::string_view name, std::string_view labels = {});
  [[nodiscard]] const FlightSeries* find(std::string_view name,
                                         std::string_view labels = {}) const;

  /// Start periodic sampling on `sched`: a background event fires at each
  /// multiple of the sample period (background so the recorder never
  /// keeps run() alive). Call once per recorder.
  void start(sim::Scheduler& sched);
  void stop();
  /// Sample every probe once at time `t` (start() calls this on a timer;
  /// tests can drive it directly).
  void sample(sim::TimePoint t);

  /// Fold `other`'s series into this recorder in key order. Stops
  /// `other`'s sampler and drops its probes, so a second merge cannot
  /// double-count.
  void merge_from(FlightRecorder& other);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }
  /// Max over the bucket maxima of every series whose name part (before
  /// any '{') equals `name` — e.g. peak engine.tx_backlog across nodes.
  [[nodiscard]] double peak_over(std::string_view name) const;
  /// Total bucket storage across series (the bounded-memory guarantee).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// {"sample_period_ns":..,"samples":..,"series":{key:{"count":..,
  /// "per_bucket":..,"points":[[t0,n,min,max,mean],..]},..}} — keys in
  /// lexicographic order, numbers formatted deterministically.
  [[nodiscard]] std::string to_json() const;
  /// series,t_ns,samples,min,max,mean — one row per bucket, series keys
  /// CSV-quoted (they contain commas in multi-label form).
  [[nodiscard]] std::string to_csv() const;
  void write_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

  /// ASCII sparkline dashboard (one row per series: peak, last, shape).
  /// `filter` keeps only series whose key contains it; width is the
  /// sparkline column budget.
  [[nodiscard]] std::string dashboard(std::string_view filter = {},
                                      std::size_t width = 56) const;

 private:
  struct Probe {
    FlightSeries* series;
    std::function<double()> fn;
  };

  void tick();

  std::map<std::string, FlightSeries> series_;
  std::vector<Probe> probes_;
  sim::Scheduler* sched_ = nullptr;
  sim::EventId pending_ = sim::kInvalidEvent;
  std::uint64_t samples_ = 0;
};

/// Render `values` into a `width`-column ASCII sparkline (pure-ASCII ramp
/// " .:-=+*#%@", normalized to the max; columns aggregate by max so peaks
/// never vanish). Exposed for trace_inspect --timeline.
[[nodiscard]] std::string render_sparkline(const std::vector<double>& values,
                                           std::size_t width);

}  // namespace pd::obs
