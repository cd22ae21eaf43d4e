// White-box tests of the baseline data planes: SPRIGHT's TCP relay pays
// serialization copies; FUYAO's one-sided engine respects its credit
// window and pins a polling core.
#include <gtest/gtest.h>

#include "baselines/fuyao_engine.hpp"
#include "baselines/tcp_engine.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"

namespace pd::baselines {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kFnA{1};
constexpr FunctionId kFnB{2};

std::unique_ptr<runtime::Cluster> cross_node_cluster(sim::ParallelSim& psim,
                                                     runtime::SystemKind sys) {
  runtime::ClusterConfig cfg;
  cfg.system = sys;
  cfg.pool_buffers = 256;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "a", kTenant}, kNode1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "ab", kTenant, 512,
                                    {{kFnA, 1'000, 512}, {kFnB, 1'000, 512}}});
  return cluster;
}

TEST(TcpRelay, RelaysAcrossNodesAndCountsMessages) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kSpright);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(2);
  psim.run_until(sched.now() + 500'000'000);
  driver.stop();
  psim.run();

  ASSERT_GT(driver.completed(), 10u);
  auto* relay1 = dynamic_cast<TcpRelayEngine*>(&cluster->worker(kNode1).dataplane());
  auto* relay2 = dynamic_cast<TcpRelayEngine*>(&cluster->worker(kNode2).dataplane());
  ASSERT_NE(relay1, nullptr);
  ASSERT_NE(relay2, nullptr);
  // Per request: A->B crossing on node 1, B->entry crossing on node 2.
  EXPECT_GE(relay1->relayed(), driver.completed());
  EXPECT_GE(relay2->relayed(), driver.completed());
}

TEST(TcpRelay, RelayEngineChargesCpuForCopies) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kSpright);
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  const auto before = cluster->worker(kNode1).engine_core().busy_ns();
  driver.start(1);
  psim.run_until(sched.now() + 200'000'000);
  driver.stop();
  psim.run();
  // Serialization + TCP stack work must show up on the relay core.
  EXPECT_GT(cluster->worker(kNode1).engine_core().busy_ns() - before,
            static_cast<sim::Duration>(driver.completed()) * 10'000);
}

TEST(Fuyao, PinsAPollingCorePerNode) {
  sim::ParallelSim psim(1);
  auto cluster = cross_node_cluster(psim, runtime::SystemKind::kFuyao);
  cluster->finish_setup();
  EXPECT_TRUE(cluster->worker(kNode1).engine_core().busy_poll());
  EXPECT_TRUE(cluster->worker(kNode2).engine_core().busy_poll());
  // The Palladium DNE variant, by contrast, pins a DPU core, not a host one.
  sim::ParallelSim psim2(1);
  auto pall = cross_node_cluster(psim2, runtime::SystemKind::kPalladiumDne);
  pall->finish_setup();
  EXPECT_TRUE(pall->worker(kNode1).engine_core().busy_poll());
  EXPECT_EQ(&pall->worker(kNode1).engine_core(),
            &pall->worker(kNode1).dpu()->core(0));
}

TEST(Fuyao, CreditWindowNeverOverflowsStaging) {
  // Push far more concurrent requests than staging slots: the credit
  // window must backpressure (queue at the sender) rather than overwrite
  // slots in flight.
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kFuyao;
  cfg.pool_buffers = 2048;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "b", kTenant, 256,
                                    {{kFnB, 500, 256}}});
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(256);  // >> 64 staging slots
  psim.run_until(sched.now() + 1'000'000'000);
  driver.stop();
  psim.run();
  EXPECT_GT(driver.completed(), 1000u);
  // All requests eventually completed (none lost to slot overwrites).
  EXPECT_EQ(driver.latencies().count(), driver.completed());
}

TEST(Fuyao, PalladiumOutpacesFuyaoUnderLoad) {
  // At light load FUYAO's short skmsg+poll path can beat Comch-E's wakeup
  // latency; under concurrency its CPU-resident polling engine (interrupt
  // wakeups per message, receiver-side copies) saturates first — the §4.3
  // comparison point.
  auto throughput = [](runtime::SystemKind sys) {
    sim::ParallelSim psim(1);
    sim::Scheduler& sched = psim.shard(0);
    auto cluster = cross_node_cluster(psim, sys);
    workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
    cluster->finish_setup();
    driver.start(64);
    psim.run_until(sched.now() + 1'000'000'000);
    driver.stop();
    psim.run();
    return driver.completed();
  };
  const auto palladium = throughput(runtime::SystemKind::kPalladiumDne);
  const auto fuyao = throughput(runtime::SystemKind::kFuyao);
  EXPECT_GT(palladium, fuyao);
}

}  // namespace
}  // namespace pd::baselines
