// Per-tenant admission control for the cluster edge (ISSUE 7 tentpole,
// part 2).
//
// A priority-aware token-bucket gate consulted by PalladiumIngress before a
// request enters the fabric. In steady state every tenant is admitted; when
// the controller raises "pressure" (the SLO-burn feedback loop deciding the
// cluster is overloaded), protected tenants (priority >= 1) keep flowing
// while best-effort tenants are clamped to their provisioned token rate and
// everything beyond it is shed with an explicit 429 — graceful degradation
// instead of a collective p99 collapse.
//
// Header-only and pure integer arithmetic on the simulated clock: refill is
// computed lazily from elapsed simulated nanoseconds with a remainder
// carry, so decisions are exact and byte-identical across host thread
// counts. The gate lives on the edge shard and is only ever consulted from
// edge events (shard-locality contract).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"

namespace pd::control {

enum class Verdict : std::uint8_t { kAdmit, kShed };

struct TenantPolicy {
  TenantId tenant{};
  /// 0 = best-effort (sheddable under pressure), >= 1 = protected.
  std::uint32_t priority = 0;
  /// Token refill rate (requests per simulated second) applied while the
  /// gate is under pressure.
  std::uint64_t rate_rps = 1000;
  /// Bucket depth: short bursts above rate_rps pass until this drains.
  std::uint64_t burst = 32;
};

class AdmissionController {
 public:
  void add_policy(const TenantPolicy& policy) {
    PD_CHECK(policy.tenant.valid(), "admission policy needs a tenant");
    PD_CHECK(policy.burst > 0, "admission burst must be positive");
    auto [it, inserted] = tenants_.emplace(policy.tenant, State{});
    PD_CHECK(inserted, "duplicate admission policy for " << policy.tenant);
    it->second.policy = policy;
    it->second.tokens = policy.burst;  // start full: bursts at t=0 admit
  }

  /// Engage / release overload pressure. While released, every tenant is
  /// admitted unconditionally (buckets still refill, so engaging pressure
  /// later starts from a full, not stale, bucket).
  void set_pressure(bool on) {
    if (on && !pressure_) ++engagements_;
    pressure_ = on;
    if (!on) target_ = TenantId{};
  }
  [[nodiscard]] bool pressure() const { return pressure_; }
  [[nodiscard]] std::uint64_t engagements() const { return engagements_; }

  /// Targeted (blame-driven) pressure: point the gate at the measured
  /// aggressor. While pressure is engaged with a target, the target pays
  /// `target_cost()` tokens per admit — a 1/target_cost() clamp of its
  /// provisioned rate — while other best-effort tenants keep the plain
  /// one-token clamp. Releasing pressure clears the target.
  void set_pressure_target(TenantId tenant) { target_ = tenant; }
  [[nodiscard]] TenantId pressure_target() const { return target_; }
  [[nodiscard]] static constexpr std::uint64_t target_cost() { return 4; }

  /// Gate one request of `tenant` arriving at simulated time `now`.
  /// Unknown tenants (no declared policy) are always admitted.
  Verdict try_admit(TenantId tenant, sim::TimePoint now) {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return Verdict::kAdmit;
    State& s = it->second;
    refill(s, now);
    if (pressure_ && target_.valid()) {
      // Blame-driven mode: shedding is focused on the measured aggressor.
      // The target pays target_cost() tokens per admit (rate_rps / 4
      // effective — strictly tighter than the plain clamp); everyone else
      // keeps flowing, so innocent best-effort tenants are not collateral.
      if (tenant != target_) {
        if (s.tokens > 0) --s.tokens;
        ++s.admitted;
        return Verdict::kAdmit;
      }
      if (s.tokens >= target_cost()) {
        s.tokens -= target_cost();
        ++s.admitted;
        return Verdict::kAdmit;
      }
      ++s.shed;
      return Verdict::kShed;
    }
    if (!pressure_ || s.policy.priority >= 1) {
      // Consume a token when one is there so a protected tenant's bucket
      // reflects its real arrival rate, but never block on it.
      if (s.tokens > 0) --s.tokens;
      ++s.admitted;
      return Verdict::kAdmit;
    }
    if (s.tokens > 0) {
      --s.tokens;
      ++s.admitted;
      return Verdict::kAdmit;
    }
    ++s.shed;
    return Verdict::kShed;
  }

  [[nodiscard]] std::uint64_t admitted(TenantId tenant) const {
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.admitted;
  }
  [[nodiscard]] std::uint64_t shed(TenantId tenant) const {
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.shed;
  }
  [[nodiscard]] std::uint64_t tokens(TenantId tenant) const {
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.tokens;
  }

  /// Tenants with declared policies, sorted by id (deterministic
  /// iteration for reports and probes).
  [[nodiscard]] std::vector<TenantId> policies() const {
    std::vector<TenantId> out;
    out.reserve(tenants_.size());
    for (const auto& [tenant, state] : tenants_) out.push_back(tenant);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct State {
    TenantPolicy policy;
    std::uint64_t tokens = 0;
    /// Sub-token refill remainder in rps-weighted nanoseconds (carry so
    /// rates that do not divide 1e9 refill exactly over time).
    std::uint64_t carry = 0;
    sim::TimePoint last_refill = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };

  static void refill(State& s, sim::TimePoint now) {
    if (now <= s.last_refill) return;
    const auto elapsed = static_cast<std::uint64_t>(now - s.last_refill);
    s.last_refill = now;
    // tokens += elapsed_ns * rate / 1e9, exactly, via remainder carry.
    s.carry += elapsed * s.policy.rate_rps;
    const std::uint64_t whole = s.carry / 1'000'000'000ULL;
    s.carry %= 1'000'000'000ULL;
    s.tokens = std::min(s.tokens + whole, s.policy.burst);
    if (s.tokens == s.policy.burst) s.carry = 0;  // full bucket holds no carry
  }

  std::unordered_map<TenantId, State> tenants_;
  bool pressure_ = false;
  TenantId target_{};  ///< invalid() = untargeted (plain clamp)
  std::uint64_t engagements_ = 0;
};

}  // namespace pd::control
