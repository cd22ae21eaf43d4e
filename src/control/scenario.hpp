// Deterministic overload-scenario suite (ISSUE 7 tentpole, part 3).
//
// Four canned overload shapes against the Online Boutique deployment, each
// runnable with the control loop (autoscalers + per-tenant admission) off
// or on, serial or sharded. A run produces an OverloadResult whose json()
// is integer-only and byte-identical across --threads 1/2/4 — the
// before/after SLO tables the overload gate diffs.
//
//  - flash_crowd:     /home population steps 12 -> 48 -> 12 mid-run.
//  - noisy_neighbor:  a best-effort batch tenant (32 closed-loop clients)
//                     piles onto a capacity-pinned fabric next to the
//                     protected boutique tenant. With control on the
//                     admission gate sheds the aggressor explicitly (429)
//                     and the protected tenant's p99 stays within SLO.
//  - diurnal:         the /home population ramps up and back down in six
//                     steps across the run.
//  - chaos_2x:        double the baseline load under a seeded FaultPlan
//                     (link outages, frame loss, QP faults, crashes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/autoscaler.hpp"
#include "sim/time.hpp"

namespace pd::control {

enum class OverloadScenario : std::uint8_t {
  kFlashCrowd,
  kNoisyNeighbor,
  kDiurnal,
  kChaos2x,
};

const char* to_string(OverloadScenario s);
/// "flash_crowd" / "noisy_neighbor" / "diurnal" / "chaos_2x"; PD_CHECKs on
/// anything else.
OverloadScenario parse_scenario(const std::string& name);
/// All four, in enum order (sweep drivers iterate this).
const std::vector<OverloadScenario>& all_scenarios();

struct OverloadOptions {
  OverloadScenario scenario = OverloadScenario::kFlashCrowd;
  /// 0 = one-shard ParallelSim (the serial simulation); N > 0 = edge + one
  /// shard per worker over N OS threads (bit-identical for every N).
  std::size_t threads = 0;
  /// false = open loop: no autoscalers, no admission gate (the "before"
  /// column); true = the full ISSUE 7 control loop (the "after" column).
  bool control = true;
  std::int64_t seconds = 3;
  std::uint64_t chaos_seed = 42;  ///< kChaos2x fault-plan seed
  /// Shedding policy the edge controller applies once pressure engages
  /// (only meaningful with control on): kBurnRate clamps every best-effort
  /// tenant; kBlame targets the resource ledger's measured top aggressor
  /// of the protected (shop) tenant.
  ShedPolicy shed_policy = ShedPolicy::kBurnRate;
};

struct OverloadResult {
  std::string scenario;
  bool control = false;
  /// "open" (control off), "burn-rate", or "blame".
  std::string policy;

  struct SloRow {
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    std::uint64_t alerts = 0;
  };
  std::vector<SloRow> slos;  ///< sorted by name

  struct GenRow {
    std::string target;   ///< page, e.g. "/home"
    std::string tenant;   ///< "shop" or "batch"
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::int64_t p99_ns = 0;
  };
  std::vector<GenRow> gens;  ///< fixed page order

  // Edge-side policy/fault counters (distinct by design: shed_admission is
  // the 429 policy drop, deadline_expired the 504 timeout).
  std::uint64_t shed_admission = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad_gateway = 0;
  std::uint64_t ingress_scale_events = 0;
  int final_workers = 0;

  // Fabric-side counters summed over worker engines.
  std::uint64_t engine_shed_admission = 0;
  std::uint64_t engine_requests_shed = 0;

  // Controller activity (0 with control off).
  std::uint64_t controller_events = 0;
  std::uint64_t replica_events = 0;
  std::uint64_t pressure_engagements = 0;

  /// Per-tenant admission-gate outcomes (sorted by tenant id).
  struct AdmissionRow {
    std::string tenant;  ///< "shop" / "batch" / numeric label
    std::uint64_t id = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
  };
  std::vector<AdmissionRow> admission;

  /// Resource-ledger interference matrix, aggregated per (kind, aggressor,
  /// victim) and sorted by descending ns — "aggressor imposed ns of
  /// queueing on victim at resources of this kind". Self-blame rows are
  /// included so each victim's rows sum to its measured wait.
  struct BlameRow {
    std::string kind;
    std::int64_t aggressor = 0;
    std::int64_t victim = 0;
    std::uint64_t ns = 0;
  };
  std::vector<BlameRow> blame;

  /// The full resource-ledger report (obs::Ledger::to_json): per-resource
  /// occupancy/wait/byte cells plus the blame matrix. Byte-identical
  /// across thread counts; written by the driver's --ledger-json flag.
  std::string ledger_json;

  /// Every request issued got an explicit answer: sent == completed+errors
  /// across all generators after the drain.
  bool zero_loss = false;

  /// Integer-only JSON (deterministic across thread counts); the artifact
  /// tools/report_diff and the golden gate consume.
  [[nodiscard]] std::string json() const;
  /// Human-readable per-tenant SLO table for the demo's before/after view.
  [[nodiscard]] std::string table() const;
};

/// Build the scenario's cluster, run it to the horizon, drain, and collect
/// the result. Self-contained: every call constructs a fresh simulation.
OverloadResult run_overload(const OverloadOptions& opts);

}  // namespace pd::control
