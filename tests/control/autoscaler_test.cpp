// Feedback-controller tests (ISSUE 7 tentpole, part 1): the SLO burn
// signal the controllers consume, the instance autoscaler's replica
// activation loop, and the edge controller's scale + admission-pressure
// feedback against a live gateway.
#include "control/autoscaler.hpp"

#include <gtest/gtest.h>

#include "obs/slo.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"
#include "workload/http_client.hpp"

namespace pd::control {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kFnA{1};
constexpr FunctionId kFnB{2};
constexpr std::uint32_t kChain = 1;

std::unique_ptr<runtime::Cluster> make_cluster(sim::ParallelSim& psim) {
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 8;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "a", kTenant}, kNode1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{kChain, "echo", kTenant, 128,
                                    {{kFnA, 40'000, 128},
                                     {kFnB, 15'000, 256},
                                     {kFnA, 40'000, 400}}});
  return cluster;
}

// --- the burn signal ---------------------------------------------------------

TEST(SloBurnSignal, RollFreshensBurnAndDecaysOnSilence) {
  obs::SloWatchdog dog;
  dog.add({.name = "echo", .tenant = kTenant, .target_ns = 1'000,
           .budget = 0.1});
  // Window 0 of the 100 ms SLO windows: 10 requests, 5 violating -> burn
  // (0.5 / 0.1) = 5.
  for (int i = 0; i < 5; ++i) dog.record(kTenant, kChain, 100, 50'000'000);
  for (int i = 0; i < 5; ++i) dog.record(kTenant, kChain, 5'000, 60'000'000);
  EXPECT_EQ(dog.burn_of("echo"), 0.0);  // window still open
  dog.roll(150'000'000);                // crossed into window 1
  EXPECT_DOUBLE_EQ(dog.burn_of("echo"), 5.0);
  EXPECT_DOUBLE_EQ(dog.max_burn(), 5.0);
  // Rolling within the same window changes nothing.
  dog.roll(190'000'000);
  EXPECT_DOUBLE_EQ(dog.burn_of("echo"), 5.0);
  // A fully idle window decays the signal: silence is not a violation.
  dog.roll(350'000'000);
  EXPECT_EQ(dog.burn_of("echo"), 0.0);
  EXPECT_EQ(dog.max_burn(), 0.0);
  EXPECT_EQ(dog.burn_of("no-such-spec"), 0.0);
}

// --- instance autoscaler -----------------------------------------------------

TEST(InstanceAutoscalerTest, ActivatesProvisionedReplicasUnderBacklogThenIdles) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = make_cluster(psim);
  cluster->provision_replicas(kFnA, 3);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, kChain);
  cluster->finish_setup();

  auto& inst = cluster->instance(kFnA);
  EXPECT_EQ(inst.replica_capacity(), 4u);
  EXPECT_EQ(inst.active_replicas(), 1u);

  InstanceAutoscaler scaler(inst, cluster->scheduler_for(kNode1));
  scaler.start();

  // 32 concurrent requests pile compute on A (40 µs per visit, twice per
  // request): the backlog trips the scaler within a few periods.
  driver.start(32);
  psim.run_until(sched.now() + 300'000'000);
  EXPECT_GT(inst.active_replicas(), 1u);
  const auto peak = inst.active_replicas();

  // Load gone: the scaler retires replicas back down to one, one step per
  // eight quiet 50 ms periods.
  driver.stop();
  psim.run();
  psim.run_until(sched.now() + 1'500'000'000);
  EXPECT_EQ(inst.active_replicas(), 1u);

  bool saw_up = false;
  bool saw_down = false;
  for (const ScaleEvent& e : scaler.events()) {
    if (e.to > e.from) saw_up = true;
    if (e.to < e.from) saw_down = true;
    EXPECT_EQ(e.actor, "fn:a");
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
  EXPECT_GE(peak, 2u);
}

// --- edge controller ---------------------------------------------------------

TEST(EdgeControllerTest, ScalesWorkersOnBacklogAndEngagesPressureOnBurn) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = make_cluster(psim);

  AdmissionController admission;
  // Best-effort on purpose: the protected path is exercised by the
  // overload suite; here we want to see the gate actually close.
  admission.add_policy({kTenant, /*priority=*/0, /*rate_rps=*/50,
                        /*burst=*/4});

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 1;
  icfg.max_workers = 4;
  icfg.autoscale = false;
  icfg.admission = &admission;
  ingress::PalladiumIngress gateway(*cluster, icfg);
  gateway.expose_chain("/echo", kChain);
  gateway.finish_setup();
  cluster->finish_setup();

  // An absurd 1 µs target: every request violates, so burn saturates and
  // the controller must both scale out and engage admission pressure.
  cluster->add_slo({.name = "echo-strict", .tenant = kTenant,
                    .target_ns = 1'000, .budget = 0.1});

  EdgeControllerConfig ecfg;
  ecfg.pressure_slo = "echo-strict";
  ecfg.pressure_off_hysteresis = 4;
  EdgeController controller(gateway, &admission, sched, ecfg);
  controller.start();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  wcfg.error_backoff = 1'000'000;  // bounded retry rate once shed
  workload::HttpLoadGen wrk(sched, gateway, wcfg);
  wrk.add_clients(24);
  psim.run_until(sched.now() + 1'000'000'000);

  EXPECT_GT(gateway.active_workers(), 1);
  EXPECT_TRUE(admission.pressure());
  EXPECT_EQ(admission.engagements(), 1u);
  EXPECT_GT(gateway.shed_admission(), 0u);

  // Load stops; idle windows decay the burn and the controller releases
  // the gate (and the sheds stop growing).
  wrk.stop();
  psim.run();
  psim.run_until(sched.now() + 2'000'000'000);
  EXPECT_FALSE(admission.pressure());

  bool scaled_up = false;
  bool pressured = false;
  for (const ScaleEvent& e : controller.events()) {
    if (e.actor == "ingress" && e.to > e.from) scaled_up = true;
    if (e.actor == "pressure") pressured = true;
  }
  EXPECT_TRUE(scaled_up);
  EXPECT_TRUE(pressured);
  EXPECT_GT(controller.ticks(), 50u);
}

}  // namespace
}  // namespace pd::control
