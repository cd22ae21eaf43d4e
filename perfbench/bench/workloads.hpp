// The three benchmark workloads. One call runs one repetition: build a
// cluster on a ParallelSim, warm up, measure a fixed simulated window,
// drain, check the run and tear it down. Every modeled number depends only
// on (workload, seed), so repetitions agree bit for bit and only the wall
// clock varies between them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Traced run: shard tracing (1 in N requests) + shard profiling on, and
  /// the critical-path breakdown computed after the drain.
  bool traced = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// OS threads the workload's ParallelSim runs on.
[[nodiscard]] unsigned workload_threads(const std::string& workload);

/// Independent stream `stream` of the workload seed (splitmix64 of the
/// pair). Stream 0 feeds ClusterConfig::seed; 1 + tenant feeds a tenant's
/// arrival generator.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

struct RepResult {
  /// End-to-end modeled metrics (simulated time); pure functions of the
  /// workload and seed.
  std::map<std::string, double> modeled;
  /// Per-layer counts and ratios that are also pure functions of the seed.
  std::map<std::string, double> counts;
  /// Wall-clock and memory figures of this repetition.
  std::map<std::string, double> wall;
  /// Critical-path breakdown (traced runs only).
  std::map<std::string, double> crit;
  /// Wall seconds of each run_until slice of the measured window, in order.
  /// The slices cover the same simulated intervals in every repetition.
  std::vector<double> window_slice_s;
  /// Requests finished and events dispatched in the measured window.
  std::uint64_t window_requests = 0;
  std::uint64_t window_events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

/// Run one repetition. `spans` (may be null) receives the benchmark's own
/// wall-clock spans around setup, run slices, merge and teardown.
RepResult run_rep(const Options& opts, SpanLog* spans);

}  // namespace perfbench
