// The benchmark's own load side: a seeded open-loop Poisson arrival
// generator and a per-request log that times every request from its
// scheduled send time. Neither touches the simulator, so both are unit
// tested on plain numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// splitmix64: a tiny, well-mixed 64-bit generator. The benchmark's arrival
/// stream depends only on the workload seed, never on library RNG code.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double uniform() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Open-loop Poisson arrivals whose rate is `rate_rps`, multiplied by
/// `surge_factor` during the first `surge_on_ns` of every `surge_period_ns`
/// (shifted by `surge_phase_ns`). Arrivals are drawn by thinning: candidates
/// come at the peak rate and each is kept with probability rate(t) / peak,
/// which is exact for a rate that changes within a gap (drawing each gap at
/// the rate in force when it starts would cut every surge short).
class OpenLoopPoisson {
 public:
  struct Shape {
    double rate_rps = 0;
    double surge_factor = 1.0;
    std::int64_t surge_period_ns = 0;  ///< 0 = steady
    std::int64_t surge_on_ns = 0;
    std::int64_t surge_phase_ns = 0;
  };

  OpenLoopPoisson(Shape shape, std::uint64_t seed, std::int64_t start_ns)
      : shape_(shape),
        peak_rps_(shape.rate_rps * std::max(1.0, shape.surge_factor)),
        rng_(seed),
        next_ns_(start_ns) {}

  [[nodiscard]] double rate_at(std::int64_t t_ns) const {
    if (shape_.surge_period_ns <= 0) return shape_.rate_rps;
    const std::int64_t phase =
        ((t_ns + shape_.surge_phase_ns) % shape_.surge_period_ns +
         shape_.surge_period_ns) %
        shape_.surge_period_ns;
    return phase < shape_.surge_on_ns ? shape_.rate_rps * shape_.surge_factor
                                      : shape_.rate_rps;
  }

  /// The scheduled send time of the next request; advances the stream.
  std::int64_t next_send() {
    const std::int64_t due = next_ns_;
    std::int64_t t = due;
    do {
      const double gap_ns = -std::log(rng_.uniform()) * 1e9 / peak_rps_;
      t += std::max<std::int64_t>(1, std::llround(gap_ns));
    } while (rng_.uniform() * peak_rps_ > rate_at(t));
    next_ns_ = t;
    return due;
  }

 private:
  Shape shape_;
  double peak_rps_;
  SplitMix64 rng_;
  std::int64_t next_ns_;
};

/// One line per request: when it was due, when it finished and how. A
/// request's latency is done − due, so a request that waits behind a stall
/// pays for the wait even if it was injected late.
class RequestLog {
 public:
  struct Entry {
    std::int64_t due_ns = 0;
    std::int64_t done_ns = -1;  ///< -1 while in flight
    std::uint32_t cls = 0;
    bool ok = false;
  };

  /// Record a request due at `due_ns`; returns its index.
  std::size_t open(std::int64_t due_ns, std::uint32_t cls) {
    entries_.push_back(Entry{due_ns, -1, cls, false});
    return entries_.size() - 1;
  }
  void close(std::size_t idx, std::int64_t done_ns, bool ok) {
    Entry& e = entries_[idx];
    e.done_ns = done_ns;
    e.ok = ok;
  }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t open_count() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.done_ns < 0 ? 1 : 0;
    return n;
  }

 private:
  std::vector<Entry> entries_;
};

/// Latency summary of the requests of some classes that were due inside a
/// window [from, until). Failures and in-flight requests count as SLO
/// misses; quantiles are over successful requests only.
struct ClassSummary {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t slo_ok = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
};

/// `in_class(cls)` selects the classes to summarise.
template <typename Pred>
ClassSummary summarize(const std::vector<RequestLog::Entry>& log,
                       std::int64_t from, std::int64_t until,
                       std::int64_t slo_ns, Pred in_class) {
  ClassSummary s;
  std::vector<std::int64_t> lat;
  for (const RequestLog::Entry& e : log) {
    if (e.due_ns < from || e.due_ns >= until || !in_class(e.cls)) continue;
    ++s.attempted;
    if (!e.ok || e.done_ns < 0) continue;
    ++s.ok;
    const std::int64_t l = e.done_ns - e.due_ns;
    if (l <= slo_ns) ++s.slo_ok;
    lat.push_back(l);
  }
  s.p50_ns = quantile(lat, 0.50);
  s.p99_ns = quantile(lat, 0.99);
  return s;
}

/// Requests (of any class and outcome) that finished inside [from, until).
inline std::uint64_t finished_in(const std::vector<RequestLog::Entry>& log,
                                 std::int64_t from, std::int64_t until) {
  std::uint64_t n = 0;
  for (const RequestLog::Entry& e : log) {
    n += e.done_ns >= from && e.done_ns < until ? 1 : 0;
  }
  return n;
}

}  // namespace perfbench
