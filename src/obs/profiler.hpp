// Simulated-time exact profiler (ISSUE 5 tentpole, part 2).
//
// Implements sim::BusyObserver: every busy interval a sim::Core (or SoC-DMA
// engine) charges is folded into a (resource; component; tenant; detail)
// stack keyed map. There is no sampling — the profile IS the busy-time
// accounting, so the collapsed-stack export sums exactly to the cores'
// busy_ns() once the run drains, and two identical runs produce
// byte-identical profiles. Consumable by standard flamegraph tooling
// (flamegraph.pl / speedscope / inferno take "a;b;c <count>" lines).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/profile.hpp"

namespace pd::obs {

class Registry;

class Profiler : public sim::BusyObserver {
 public:
  void on_busy(std::string_view resource, const sim::ProfileFrame& frame,
               sim::Duration scaled_ns) override;

  [[nodiscard]] bool empty() const { return folded_.empty(); }
  /// Total busy ns recorded across every resource.
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }
  /// Busy ns recorded against one resource (exact core name).
  [[nodiscard]] std::uint64_t resource_ns(std::string_view resource) const;
  /// Busy ns summed over resources whose name starts with `prefix`
  /// (e.g. "node1/cpu/" covers a whole CoreSet).
  [[nodiscard]] std::uint64_t resource_prefix_ns(std::string_view prefix) const;

  /// Folded stacks: key "resource;component;tenant:T;detail" -> busy ns.
  [[nodiscard]] const std::map<std::string, std::uint64_t>& folded() const {
    return folded_;
  }

  /// Collapsed-stack file contents, one "stack count" line per frame in
  /// lexicographic key order (deterministic).
  [[nodiscard]] std::string to_collapsed() const;
  void write_collapsed(const std::string& path) const;

  /// Folded summary into the metrics registry: busy ns per (component,
  /// tenant) as `profile.busy_ns{component=...,tenant=...}` counters plus
  /// the `profile.total_busy_ns` rollup.
  void export_folded(Registry& reg) const;

  /// Fold `other` into this profiler and clear it (deterministic shard
  /// merge: call in fixed shard order).
  void absorb(Profiler& other);

  void reset();

 private:
  std::map<std::string, std::uint64_t> folded_;
  std::map<std::string, std::uint64_t> by_resource_;
  std::uint64_t total_ns_ = 0;
};

}  // namespace pd::obs
