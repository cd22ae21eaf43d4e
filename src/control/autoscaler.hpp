// SLO-driven feedback autoscalers (ISSUE 7 tentpole, part 1): the
// "sensors -> actuators" layer that turns the observability stack (SLO
// burn rates, queue backlogs) into scaling and admission decisions on the
// simulated clock.
//
// Two controllers, each pinned to the shard that owns its actuator so
// every decision reads only shard-local state (the PDES determinism
// contract — byte-identical across --threads 1/2/4):
//
//  - EdgeController (edge shard): scales the ingress worker pool on SLO
//    burn + pending-request backlog, and engages/releases the per-tenant
//    admission gate's overload pressure. Consumes the edge hub's
//    SloWatchdog via roll()/max_burn() — requests complete at the edge, so
//    that is where the burn signal lives.
//
//  - InstanceAutoscaler (one per deployed function, on its node's shard):
//    activates/deactivates pre-provisioned function replicas
//    (Cluster::provision_replicas) from the instance's own compute
//    backlog.
//
// Both use consecutive-period hysteresis plus post-action cooldowns, the
// standard damping pair that keeps feedback loops from flapping on bursty
// signals.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "control/admission.hpp"
#include "ingress/palladium_ingress.hpp"
#include "runtime/function.hpp"

namespace pd::control {

/// One actuation, for reports and tests ("did it scale, when, and why").
struct ScaleEvent {
  sim::TimePoint at = 0;
  std::string actor;   ///< "ingress", "fn:<name>", "pressure"
  int from = 0;
  int to = 0;
  std::string reason;  ///< "burn", "backlog", "idle", ...
};

/// What the admission gate does once pressure engages. kBurnRate is the
/// ISSUE 7 behaviour: clamp every best-effort tenant to its provisioned
/// token rate. kBlame closes the ISSUE 10 loop: read the resource ledger's
/// interference matrix, identify the tenant imposing the most queueing on
/// the protected tenant, and point the gate's targeted clamp at that
/// measured aggressor — innocent best-effort tenants keep flowing.
enum class ShedPolicy : std::uint8_t { kBurnRate, kBlame };

[[nodiscard]] const char* to_string(ShedPolicy policy);

/// The loop period, scale-up backlog threshold, hysteresis and cooldowns
/// are constants in autoscaler.cpp; these are what the caller decides.
struct EdgeControllerConfig {
  /// Admission pressure: engage when the watched SLO's burn holds at/above
  /// 1.0 for two periods; release when it holds at/below pressure_off for
  /// pressure_off_hysteresis periods.
  double pressure_off = 0.5;
  int pressure_off_hysteresis = 8;
  /// SLO spec name whose burn drives admission pressure ("" = max over all
  /// specs). Point this at the *protected* tenant's SLO: shedding the
  /// aggressor keeps burning the aggressor's own SLO, and feeding that
  /// back would latch pressure on forever.
  std::string pressure_slo;
  /// Shedding policy under pressure (see ShedPolicy). kBlame requires the
  /// resource ledger to be enabled and `protected_tenant` set; with no
  /// measured aggressor it degrades to kBurnRate behaviour.
  ShedPolicy shed_policy = ShedPolicy::kBurnRate;
  /// The tenant whose interference column the kBlame policy consults (the
  /// victim whose top aggressor gets targeted).
  TenantId protected_tenant{};
};

class EdgeController {
 public:
  EdgeController(ingress::PalladiumIngress& ingress,
                 AdmissionController* admission, sim::Scheduler& sched,
                 EdgeControllerConfig config = {});

  /// Begin periodic evaluation (background events: the controller never
  /// keeps an otherwise-drained simulation alive).
  void start();

  [[nodiscard]] const std::vector<ScaleEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick();

  ingress::PalladiumIngress& ingress_;
  AdmissionController* admission_;
  sim::Scheduler& sched_;
  EdgeControllerConfig config_;
  std::vector<ScaleEvent> events_;
  std::uint64_t ticks_ = 0;
  int up_run_ = 0;
  int down_run_ = 0;
  int cooldown_ = 0;
  int p_on_run_ = 0;
  int p_off_run_ = 0;
  bool started_ = false;
};

class InstanceAutoscaler {
 public:
  InstanceAutoscaler(runtime::FunctionInstance& fn, sim::Scheduler& sched);

  void start();

  [[nodiscard]] const std::vector<ScaleEvent>& events() const {
    return events_;
  }

 private:
  void tick();

  runtime::FunctionInstance& fn_;
  sim::Scheduler& sched_;
  std::vector<ScaleEvent> events_;
  int up_run_ = 0;
  int down_run_ = 0;
  int cooldown_ = 0;
  bool started_ = false;
};

/// One InstanceAutoscaler per deployed function that has spare replica
/// capacity, each on its owning node's scheduler shard, in sorted function
/// order (deterministic construction). Call start() is done here; the
/// returned vector just owns them.
std::vector<std::unique_ptr<InstanceAutoscaler>> attach_instance_autoscalers(
    runtime::Cluster& cluster);

}  // namespace pd::control
