// Deterministic fault injection for the simulated data plane.
//
// A FaultPlan is a seeded, pre-materialized timeline of fault episodes
// (link outages, frame loss, QP failures, SRQ drains, engine stalls,
// whole-node crashes). The ChaosController arms the plan against a
// Cluster through the discrete-event scheduler: every injection — and
// every recovery — is an ordinary simulator event, so a given (plan
// seed, workload seed) pair replays bit-identically. That determinism is
// the point: a chaos failure reproduces under a debugger from its seed
// alone.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "sim/random.hpp"

namespace pd::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,     ///< fabric port dark for `duration` (both directions)
  kLinkLoss,     ///< per-frame loss probability `loss` for `duration`
  kQpFail,       ///< instantaneous: RC QPs between `node` and `peer` -> error
  kSrqDrain,     ///< instantaneous: empty every SRQ on `node`'s RNIC
  kEngineStall,  ///< `node`'s engine core wedged for `duration`
  kNodeCrash,    ///< fail-stop crash of `node`; restart after `duration`
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  sim::TimePoint at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  NodeId node{};            ///< primary target
  NodeId peer{};            ///< kQpFail: the remote side (invalid = all peers)
  sim::Duration duration = 0;  ///< outage/loss window/stall/crash dark time
  double loss = 0;          ///< kLinkLoss probability
};

struct FaultPlanConfig {
  /// First episode no earlier than this (setup + warmup must pass).
  sim::TimePoint start = 5'000'000;  // 5 ms
  /// No injections at or after the horizon (recovery may complete later).
  sim::TimePoint horizon = 200'000'000;  // 200 ms
  int episodes = 12;
  /// Idle gap drawn between the end of one episode and the next start.
  sim::Duration min_gap = 1'000'000;
  sim::Duration max_gap = 6'000'000;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  /// Draw a randomized, non-overlapping episode timeline over `nodes`.
  /// Deterministic per (seed, nodes, cfg) — same inputs, same plan.
  static FaultPlan generate(std::uint64_t seed, const std::vector<NodeId>& nodes,
                            FaultPlanConfig cfg = {});

  /// Human-readable timeline, one episode per line (test logs).
  [[nodiscard]] std::string describe() const;
};

/// Executes a FaultPlan against a cluster. All injections are background
/// events: chaos never keeps the simulation alive on its own, so a run
/// still quiesces once the workload (and its recovery machinery) drains.
class ChaosController {
 public:
  /// Reseeds the fabric's loss-draw stream from the plan seed so frame
  /// loss is part of the same deterministic replay.
  ChaosController(runtime::Cluster& cluster, FaultPlan plan);

  /// Schedule every episode (and its recovery). Call before run(). The
  /// timeline is pre-split onto the shards owning each piece of mutated
  /// state, at the plan's virtual times.
  void arm();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// Episodes applied so far (grows as virtual time passes).
  [[nodiscard]] std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  void count(const FaultEvent& e);
  /// Record the fault-state flight series for `e`'s node (1 while the
  /// episode holds, a 1->0 pulse for instantaneous kinds). Runs on the
  /// shard owning the node; resolves the recorder lazily so arming order
  /// relative to Cluster::start_flight_recorder() does not matter.
  void record_state(const FaultEvent& e, double v, sim::TimePoint t);
  /// Schedule the record_state() timeline points for `e` on `owner`.
  void arm_state_series(const FaultEvent& e, sim::Scheduler& owner);

  runtime::Cluster& cluster_;
  FaultPlan plan_;
  std::atomic<std::uint64_t> injected_{0};
  bool armed_ = false;
};

}  // namespace pd::fault
