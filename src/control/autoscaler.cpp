#include "control/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "obs/hub.hpp"

namespace pd::control {

namespace {
/// Both controllers evaluate once per period.
constexpr sim::Duration kPeriod = 50'000'000;  // 50 ms
/// Consecutive up- / down-signal periods before either controller acts.
constexpr int kUpHysteresis = 2;
constexpr int kDownHysteresis = 8;
static_assert(kPeriod > 0 && kUpHysteresis >= 1 && kDownHysteresis >= 1);
/// Quiet periods after any EdgeController / InstanceAutoscaler scaling
/// action.
constexpr int kEdgeCooldown = 4;
constexpr int kInstanceCooldown = 2;
/// EdgeController scale-up signal: SLO burn at/above this, or pending
/// requests per active worker at/above kPendingUp.
constexpr double kBurnUp = 1.0;
constexpr std::size_t kPendingUp = 24;
/// EdgeController scale-down signal: burn at/below kBurnDown AND pending
/// requests per worker at/below kPendingDown (and the cores quiet).
constexpr double kBurnDown = 0.25;
constexpr std::size_t kPendingDown = 4;
/// Admission pressure engages when the watched SLO's burn holds at/above
/// kPressureOn for kPressureOnHysteresis periods.
constexpr double kPressureOn = 1.0;
constexpr int kPressureOnHysteresis = 2;
/// "Quiet" means the worker cores are drained too, not just that the
/// pending-request map is empty: a pool mid-restart has its requests
/// parked on the cores before parsing, invisible to pending_requests(),
/// and the burn signal decays during the stall. Down-scaling or
/// releasing pressure on that false idle re-restarts the pool and
/// extends the outage, so both hold while the cores carry more than
/// this much queued work.
constexpr sim::Duration kWorkerBacklogQuietNs = 1'000'000;  // 1 ms
/// InstanceAutoscaler scale-up signal: pending compute jobs per active
/// replica at/above this.
constexpr std::uint64_t kJobsUp = 4;
/// InstanceAutoscaler scale-down signal: total pending jobs at/below this
/// with more than one replica.
constexpr std::uint64_t kJobsDown = 1;
}  // namespace

const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kBurnRate: return "burn-rate";
    case ShedPolicy::kBlame: return "blame";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// EdgeController
// ---------------------------------------------------------------------------

EdgeController::EdgeController(ingress::PalladiumIngress& ingress,
                               AdmissionController* admission,
                               sim::Scheduler& sched,
                               EdgeControllerConfig config)
    : ingress_(ingress),
      admission_(admission),
      sched_(sched),
      config_(std::move(config)) {}

void EdgeController::start() {
  PD_CHECK(!started_, "EdgeController started twice");
  started_ = true;
  sched_.schedule_background_after(kPeriod, [this] { tick(); });
}

void EdgeController::tick() {
  ++ticks_;
  obs::Hub* hub = obs::hub();
  double burn = 0.0;
  double pressure_burn = 0.0;
  if (hub != nullptr) {
    hub->slo.roll(sched_.now());
    // Both the scaling and the pressure signal watch the *protected*
    // SLO when one is named. Folding every spec in (max_burn) would let a
    // deliberately-shed aggressor keep its own burn pegged via 429
    // record_error and drive an endless scale-up ladder — each step a
    // worker-pool restart that stalls the very tenant being protected.
    pressure_burn = config_.pressure_slo.empty()
                        ? hub->slo.max_burn()
                        : hub->slo.burn_of(config_.pressure_slo);
    burn = pressure_burn;
  }
  const int workers = ingress_.active_workers();
  const std::size_t pending = ingress_.pending_requests();
  const auto per_worker = pending / static_cast<std::size_t>(workers);
  const bool cores_quiet =
      ingress_.worker_backlog_ns() <= kWorkerBacklogQuietNs;

  if (hub != nullptr) {
    // Integer-valued gauges only: these land in merged metrics snapshots
    // that tooling byte-compares across thread counts.
    hub->registry.gauge("control.workers", "").set(workers);
    hub->registry.gauge("control.burn_x100", "")
        .set(std::floor(burn * 100.0));
    hub->registry.gauge("control.pending_per_worker", "")
        .set(static_cast<double>(per_worker));
    hub->registry.gauge("control.pressure", "")
        .set(admission_ != nullptr && admission_->pressure() ? 1 : 0);
  }

  // --- horizontal worker scaling ------------------------------------------
  const bool up_signal =
      burn >= kBurnUp || per_worker >= kPendingUp;
  const bool down_signal = burn <= kBurnDown &&
                           per_worker <= kPendingDown && cores_quiet;
  if (up_signal) {
    ++up_run_;
    down_run_ = 0;
  } else if (down_signal) {
    ++down_run_;
    up_run_ = 0;
  } else {
    up_run_ = down_run_ = 0;
  }
  if (cooldown_ > 0) --cooldown_;

  const int max_workers = ingress_.config().max_workers;
  if (cooldown_ == 0 && up_run_ >= kUpHysteresis &&
      workers < max_workers) {
    ingress_.scale_to(workers + 1);
    events_.push_back(ScaleEvent{sched_.now(), "ingress", workers, workers + 1,
                                 burn >= kBurnUp ? "burn" : "backlog"});
    if (hub != nullptr) hub->registry.counter("control.scale_up", "").inc();
    cooldown_ = kEdgeCooldown;
    up_run_ = 0;
  } else if (cooldown_ == 0 && down_run_ >= kDownHysteresis &&
             workers > 1) {
    ingress_.scale_to(workers - 1);
    events_.push_back(
        ScaleEvent{sched_.now(), "ingress", workers, workers - 1, "idle"});
    if (hub != nullptr) hub->registry.counter("control.scale_down", "").inc();
    cooldown_ = kEdgeCooldown;
    down_run_ = 0;
  }

  // --- admission pressure ---------------------------------------------------
  if (admission_ != nullptr) {
    if (pressure_burn >= kPressureOn) {
      ++p_on_run_;
      p_off_run_ = 0;
    } else if (pressure_burn <= config_.pressure_off && cores_quiet) {
      ++p_off_run_;
      p_on_run_ = 0;
    } else {
      p_on_run_ = p_off_run_ = 0;
    }
    if (!admission_->pressure() && p_on_run_ >= kPressureOnHysteresis) {
      admission_->set_pressure(true);
      events_.push_back(ScaleEvent{sched_.now(), "pressure", 0, 1, "burn"});
      if (hub != nullptr) hub->registry.counter("control.pressure_on", "").inc();
      if (config_.shed_policy == ShedPolicy::kBlame && hub != nullptr &&
          config_.protected_tenant.valid()) {
        // Close the loop: the interference matrix measured so far names the
        // tenant that imposed the most queueing on the protected tenant;
        // that aggressor gets the targeted clamp. No measured aggressor
        // (-1) leaves the plain burn-rate clamp in force.
        const std::int64_t aggressor = hub->ledger.top_aggressor(
            static_cast<std::int64_t>(config_.protected_tenant.value()));
        if (aggressor >= 0) {
          admission_->set_pressure_target(
              TenantId{static_cast<std::uint32_t>(aggressor)});
          events_.push_back(ScaleEvent{sched_.now(), "pressure-target", 0,
                                       static_cast<int>(aggressor), "blame"});
          hub->registry.gauge("control.pressure_target", "")
              .set(static_cast<double>(aggressor));
        }
      }
      p_on_run_ = 0;
    } else if (admission_->pressure() &&
               p_off_run_ >= config_.pressure_off_hysteresis) {
      admission_->set_pressure(false);
      events_.push_back(ScaleEvent{sched_.now(), "pressure", 1, 0, "quiet"});
      if (hub != nullptr) {
        hub->registry.counter("control.pressure_off", "").inc();
      }
      p_off_run_ = 0;
    }
  }

  sched_.schedule_background_after(kPeriod, [this] { tick(); });
}

// ---------------------------------------------------------------------------
// InstanceAutoscaler
// ---------------------------------------------------------------------------

InstanceAutoscaler::InstanceAutoscaler(runtime::FunctionInstance& fn,
                                       sim::Scheduler& sched)
    : fn_(fn), sched_(sched) {
  PD_CHECK(fn_.replica_capacity() >= 1, "instance has no cores");
}

void InstanceAutoscaler::start() {
  PD_CHECK(!started_, "InstanceAutoscaler started twice");
  started_ = true;
  sched_.schedule_background_after(kPeriod, [this] { tick(); });
}

void InstanceAutoscaler::tick() {
  const std::uint64_t jobs = fn_.pending_jobs();
  const auto active = fn_.active_replicas();
  const std::uint64_t per_replica = jobs / active;

  if (obs::Hub* hub = obs::hub()) {
    hub->registry
        .gauge("control.replicas", "fn=" + fn_.spec().name)
        .set(static_cast<double>(active));
  }

  const bool up_signal =
      per_replica >= kJobsUp && active < fn_.replica_capacity();
  const bool down_signal = jobs <= kJobsDown && active > 1;
  if (up_signal) {
    ++up_run_;
    down_run_ = 0;
  } else if (down_signal) {
    ++down_run_;
    up_run_ = 0;
  } else {
    up_run_ = down_run_ = 0;
  }
  if (cooldown_ > 0) --cooldown_;

  if (cooldown_ == 0 && up_run_ >= kUpHysteresis) {
    fn_.set_active_replicas(active + 1);
    events_.push_back(ScaleEvent{sched_.now(), "fn:" + fn_.spec().name,
                                 static_cast<int>(active),
                                 static_cast<int>(active + 1), "backlog"});
    if (obs::Hub* hub = obs::hub()) {
      hub->registry
          .counter("control.replica_scale_up", "fn=" + fn_.spec().name)
          .inc();
    }
    cooldown_ = kInstanceCooldown;
    up_run_ = 0;
  } else if (cooldown_ == 0 && down_run_ >= kDownHysteresis &&
             active > 1) {
    fn_.set_active_replicas(active - 1);
    events_.push_back(ScaleEvent{sched_.now(), "fn:" + fn_.spec().name,
                                 static_cast<int>(active),
                                 static_cast<int>(active - 1), "idle"});
    if (obs::Hub* hub = obs::hub()) {
      hub->registry
          .counter("control.replica_scale_down", "fn=" + fn_.spec().name)
          .inc();
    }
    cooldown_ = kInstanceCooldown;
    down_run_ = 0;
  }

  sched_.schedule_background_after(kPeriod, [this] { tick(); });
}

std::vector<std::unique_ptr<InstanceAutoscaler>> attach_instance_autoscalers(
    runtime::Cluster& cluster) {
  std::vector<std::unique_ptr<InstanceAutoscaler>> out;
  for (FunctionId fn : cluster.deployed_functions()) {
    runtime::FunctionInstance& inst = cluster.instance(fn);
    if (inst.replica_capacity() <= 1) continue;  // nothing to actuate
    auto& sched = cluster.scheduler_for(cluster.placement_of(fn));
    out.push_back(std::make_unique<InstanceAutoscaler>(inst, sched));
    out.back()->start();
  }
  return out;
}

}  // namespace pd::control
