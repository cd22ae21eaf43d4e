#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace pd::obs {

namespace {
/// Alert when a window's burn rate reaches this.
constexpr double kBurnAlert = 1.0;
/// Evaluation window of every spec.
constexpr sim::Duration kWindowNs = 100'000'000;  // 100 ms
static_assert(kWindowNs > 0);
}  // namespace

void SloWatchdog::add(SloSpec spec) {
  PD_CHECK(!spec.name.empty(), "SLO spec needs a name");
  PD_CHECK(spec.target_ns > 0, "SLO \"" << spec.name << "\" needs a target");
  PD_CHECK(spec.budget > 0.0, "SLO \"" << spec.name << "\" needs a budget");
  for (const Tracked& t : tracked_) {
    PD_CHECK(t.spec.name != spec.name,
             "duplicate SLO spec \"" << spec.name << "\"");
  }
  Tracked t;
  t.spec = std::move(spec);
  tracked_.push_back(std::move(t));
}

void SloWatchdog::record(TenantId tenant, std::uint32_t chain,
                         sim::Duration latency_ns, sim::TimePoint now) {
  for (Tracked& t : tracked_) {
    if (t.spec.tenant.valid() && t.spec.tenant != tenant) continue;
    if (t.spec.chain != 0 && t.spec.chain != chain) continue;
    const auto idx = static_cast<std::int64_t>(now / kWindowNs);
    if (t.window >= 0 && idx > t.window) close_window(t);
    if (t.window < 0 || idx > t.window) t.window = idx;
    ++t.requests;
    ++t.total_requests;
    if (latency_ns > t.spec.target_ns) {
      ++t.violations;
      ++t.total_violations;
    }
  }
}

void SloWatchdog::record_error(TenantId tenant, std::uint32_t chain,
                               sim::TimePoint now) {
  // An error is an unconditional violation: model it as an infinitely slow
  // request against the same windows.
  for (Tracked& t : tracked_) {
    if (t.spec.tenant.valid() && t.spec.tenant != tenant) continue;
    if (t.spec.chain != 0 && t.spec.chain != chain) continue;
    const auto idx = static_cast<std::int64_t>(now / kWindowNs);
    if (t.window >= 0 && idx > t.window) close_window(t);
    if (t.window < 0 || idx > t.window) t.window = idx;
    ++t.requests;
    ++t.total_requests;
    ++t.violations;
    ++t.total_violations;
  }
}

void SloWatchdog::finish(sim::TimePoint) {
  for (Tracked& t : tracked_) {
    if (t.window >= 0 && t.requests > 0) close_window(t);
  }
}

void SloWatchdog::roll(sim::TimePoint now) {
  for (Tracked& t : tracked_) {
    if (t.window < 0) continue;  // no sample yet: nothing to evaluate
    const auto idx = static_cast<std::int64_t>(now / kWindowNs);
    if (idx <= t.window) continue;
    close_window(t);
    // One or more whole windows elapsed with zero samples after the one we
    // just closed: the burn signal decays to quiet, not to the stale value.
    if (idx > t.window + 1) t.last_burn = 0.0;
    t.window = idx;
  }
}

double SloWatchdog::burn_of(std::string_view name) const {
  for (const Tracked& t : tracked_) {
    if (t.spec.name == name) return t.last_burn;
  }
  return 0.0;
}

double SloWatchdog::max_burn() const {
  double burn = 0.0;
  for (const Tracked& t : tracked_) burn = std::max(burn, t.last_burn);
  return burn;
}

void SloWatchdog::close_window(Tracked& t) {
  if (t.requests == 0) {
    // A whole window elapsed with zero samples: silence decays the burn
    // signal to quiet rather than holding the last stale value (a
    // controller polling at exactly the window period would otherwise
    // never see the burn drop after load stops).
    t.last_burn = 0.0;
    t.requests = t.violations = 0;
    return;
  }
  const double frac = static_cast<double>(t.violations) /
                      static_cast<double>(t.requests);
  const double burn = frac / t.spec.budget;
  t.last_burn = burn;
  const sim::TimePoint w0 = t.window * kWindowNs;
  const sim::TimePoint w1 = w0 + kWindowNs;
  if (registry_ != nullptr) {
    const std::string label = "slo=" + t.spec.name;
    registry_->gauge("slo.burn_rate", label).set(burn);
    registry_->counter("slo.windows", label).inc();
    registry_->counter("slo.requests", label).inc(t.requests);
    registry_->counter("slo.violations", label).inc(t.violations);
  }
  if (burn >= kBurnAlert) {
    ++t.alerts_fired;
    alerts_.push_back(SloAlert{t.spec.name, w0, w1, t.requests, t.violations,
                               burn});
    if (registry_ != nullptr) {
      registry_->counter("slo.alerts", "slo=" + t.spec.name).inc();
    }
  }
  t.requests = t.violations = 0;
}

std::vector<SloWatchdog::SpecTotals> SloWatchdog::totals() const {
  std::vector<SpecTotals> out;
  out.reserve(tracked_.size());
  for (const Tracked& t : tracked_) {
    out.push_back(SpecTotals{t.spec.name, t.total_requests, t.total_violations,
                             t.alerts_fired});
  }
  return out;
}

std::uint64_t SloWatchdog::total_requests() const {
  std::uint64_t n = 0;
  for (const Tracked& t : tracked_) n += t.total_requests;
  return n;
}

std::uint64_t SloWatchdog::total_violations() const {
  std::uint64_t n = 0;
  for (const Tracked& t : tracked_) n += t.total_violations;
  return n;
}

std::string SloWatchdog::table() const {
  char buf[192];
  std::string out;
  std::snprintf(buf, sizeof buf, "  %-12s %10s %10s %10s %10s %10s\n", "slo",
                "target ms", "requests", "violations", "alerts", "burn");
  out += buf;
  for (const Tracked& t : tracked_) {
    std::snprintf(buf, sizeof buf,
                  "  %-12s %10.2f %10llu %10llu %10llu %10.2f\n",
                  t.spec.name.c_str(),
                  static_cast<double>(t.spec.target_ns) / 1e6,
                  static_cast<unsigned long long>(t.total_requests),
                  static_cast<unsigned long long>(t.total_violations),
                  static_cast<unsigned long long>(t.alerts_fired),
                  t.last_burn);
    out += buf;
  }
  for (const SloAlert& a : alerts_) {
    std::snprintf(buf, sizeof buf,
                  "  ALERT %-12s window [%.1f, %.1f) ms: %llu/%llu violating "
                  "-> burn %.2f\n",
                  a.slo.c_str(), static_cast<double>(a.window_start) / 1e6,
                  static_cast<double>(a.window_end) / 1e6,
                  static_cast<unsigned long long>(a.violations),
                  static_cast<unsigned long long>(a.requests), a.burn);
    out += buf;
  }
  return out;
}

void SloWatchdog::absorb(SloWatchdog& other) {
  alerts_.insert(alerts_.end(), other.alerts_.begin(), other.alerts_.end());
  for (Tracked& ot : other.tracked_) {
    Tracked* mine = nullptr;
    for (Tracked& t : tracked_) {
      if (t.spec.name == ot.spec.name) {
        mine = &t;
        break;
      }
    }
    if (mine == nullptr) {
      tracked_.push_back(ot);
    } else {
      mine->total_requests += ot.total_requests;
      mine->total_violations += ot.total_violations;
      mine->alerts_fired += ot.alerts_fired;
      if (ot.total_requests > 0) mine->last_burn = ot.last_burn;
    }
  }
  other.tracked_.clear();
  other.alerts_.clear();
}

void SloWatchdog::reset() {
  tracked_.clear();
  alerts_.clear();
}

}  // namespace pd::obs
