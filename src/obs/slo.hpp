// Per-tenant SLO watchdog (ISSUE 5 tentpole, part 3).
//
// Declarative latency SLOs — "p99 of tenant T (optionally one chain) stays
// under X ns, with an error budget of B violating requests per window" —
// evaluated over fixed 100 ms simulated-time windows. Evaluation is lazy: the
// watchdog never schedules events (recording a sample rolls any completed
// windows forward), so attaching it cannot perturb simulation results and
// alert sequences replay bit-identically across --threads 1/2/4.
//
// Burn rate per window = (violations / requests) / budget: 1.0 means the
// window consumed exactly its budget, and reaching it trips an alert that
// is recorded both as a structured event and as `slo.alerts{slo=...}` in
// the metrics registry (the multiwindow burn-rate alerting style of the
// SRE workbook, collapsed to one window per spec).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "sim/time.hpp"

namespace pd::obs {

class Registry;

struct SloSpec {
  std::string name;               ///< label, e.g. "checkout" or "tenant1"
  TenantId tenant{};              ///< invalid() = match any tenant
  std::uint32_t chain = 0;        ///< 0 = match any chain
  sim::Duration target_ns = 0;    ///< latency objective (the "p99 target")
  double budget = 0.01;           ///< allowed violating fraction per window
};

struct SloAlert {
  std::string slo;
  sim::TimePoint window_start = 0;
  sim::TimePoint window_end = 0;
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  double burn = 0.0;
};

class SloWatchdog {
 public:
  /// When `registry` is non-null, window evaluations additionally record
  /// `slo.*{slo=<name>}` counters/gauges.
  explicit SloWatchdog(Registry* registry = nullptr) : registry_(registry) {}

  void add(SloSpec spec);
  [[nodiscard]] std::size_t specs() const { return tracked_.size(); }

  /// Record one finished request. Latency above the spec target counts
  /// against the budget; crossing into a new window evaluates the old one.
  void record(TenantId tenant, std::uint32_t chain, sim::Duration latency_ns,
              sim::TimePoint now);
  /// Record a failed request (502/504/shed): always a violation.
  void record_error(TenantId tenant, std::uint32_t chain, sim::TimePoint now);

  /// Close the trailing partial window. Call once after the run drains.
  void finish(sim::TimePoint now);

  /// Roll every spec's window forward to `now` without recording a sample.
  /// Controllers call this on their tick so burn rates stay fresh even when
  /// a tenant stops completing requests (a stalled tenant would otherwise
  /// freeze its last burn forever). A window that passed with no samples at
  /// all decays the burn to 0 — silence is not an SLO violation.
  void roll(sim::TimePoint now);

  /// Most recent per-window burn rate of the named spec (0 when unknown).
  [[nodiscard]] double burn_of(std::string_view name) const;
  /// Max of burn_of over every spec — the "is anyone suffering" signal.
  [[nodiscard]] double max_burn() const;

  /// Per-spec lifetime totals, in registration order (structured form of
  /// table() for report tooling).
  struct SpecTotals {
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    std::uint64_t alerts = 0;
  };
  [[nodiscard]] std::vector<SpecTotals> totals() const;

  /// Alert events in evaluation order (deterministic).
  [[nodiscard]] const std::vector<SloAlert>& alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t total_requests() const;
  [[nodiscard]] std::uint64_t total_violations() const;

  /// Human-readable per-spec summary plus the alert log.
  [[nodiscard]] std::string table() const;

  /// Fold `other`'s alerts and per-spec totals into this watchdog and
  /// clear it (deterministic shard merge: call in fixed shard order;
  /// matching specs merge by name, new ones append).
  void absorb(SloWatchdog& other);

  void reset();

 private:
  struct Tracked {
    SloSpec spec;
    std::int64_t window = -1;  ///< current window index (now / window)
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    std::uint64_t total_requests = 0;
    std::uint64_t total_violations = 0;
    std::uint64_t alerts_fired = 0;
    double last_burn = 0.0;
  };

  void close_window(Tracked& t);

  Registry* registry_;
  std::vector<Tracked> tracked_;
  std::vector<SloAlert> alerts_;
};

}  // namespace pd::obs
