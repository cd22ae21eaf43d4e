#include "workload/driver.hpp"
#include "workload/http_client.hpp"

#include <gtest/gtest.h>

#include "ingress/palladium_ingress.hpp"
#include "runtime/function.hpp"

namespace pd::workload {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kEcho{1};

std::unique_ptr<runtime::Cluster> echo_cluster(
    sim::ParallelSim& psim, core::EngineConfig engine = {}) {
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.engine = engine;
  cfg.pool_buffers = 512;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kEcho, "echo", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "echo", kTenant, 64,
                                    {{kEcho, 5'000, 64}}});
  return cluster;
}

TEST(ChainDriver, ClosedLoopKeepsExactlyNClientsOutstanding) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = echo_cluster(psim);
  ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(4);
  psim.run_until(sched.now() + 500'000'000);
  driver.stop();
  psim.run();
  EXPECT_GT(driver.completed(), 100u);
  // Closed loop: completions == issues - outstanding; all four finish.
  EXPECT_EQ(driver.latencies().count(), driver.completed());
}

TEST(ChainDriver, RpsWindowQuery) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = echo_cluster(psim);
  ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(2);
  psim.run_until(sched.now() + 3'000'000'000);
  driver.stop();
  psim.run();
  const double rps = driver.rps(1'000'000'000, 3'000'000'000);
  EXPECT_GT(rps, 0);
  EXPECT_NEAR(rps,
              static_cast<double>(driver.completed()) / 3.0, rps * 0.6);
}

TEST(ChainDriver, CountsEngineErrorCompletionsAsFailed) {
  // One unacked slot per node: the engine sheds most of the 8 clients'
  // requests at admission and hands each back as an error completion
  // (kFlagError without kFlagResponse). The closed loop counts it as
  // failed and issues the next request.
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  core::EngineConfig engine;
  engine.max_unacked = 1;
  auto cluster = echo_cluster(psim, engine);
  ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();
  driver.start(8);
  psim.run_until(sched.now() + 50'000'000);
  driver.stop();
  psim.run();
  EXPECT_GT(driver.failed(), 0u);
  EXPECT_GT(driver.completed(), 0u);
  EXPECT_EQ(driver.latencies().count(), driver.completed());
}

TEST(BurstyLoad, OpenLoopHonorsSchedule) {
  sim::ParallelSim psim(1);
  auto cluster = echo_cluster(psim);
  BurstyLoad::Schedule schedule;
  schedule.start = 4'000'000'000;  // after connection setup (~3 s)
  schedule.stop = 6'000'000'000;
  schedule.rate_rps = 5'000;
  BurstyLoad load(*cluster, FunctionId{100}, kNode1, 1, schedule, 42);
  cluster->finish_setup();
  load.start();
  psim.run_until(7'000'000'000);

  // Nothing before start, nothing after stop.
  EXPECT_EQ(load.completions().bucket_value(3), 0.0);
  EXPECT_EQ(load.completions().bucket_value(6), 0.0);
  // ~5K/s during the active window.
  EXPECT_NEAR(load.completions().bucket_value(4), 5'000, 600);
  EXPECT_NEAR(load.completions().bucket_value(5), 5'000, 600);
}

TEST(BurstyLoad, SurgeModulatesRate) {
  sim::ParallelSim psim(1);
  auto cluster = echo_cluster(psim);
  BurstyLoad::Schedule schedule;
  schedule.start = 4'000'000'000;  // after connection setup
  schedule.stop = 8'000'000'000;
  schedule.rate_rps = 2'000;
  schedule.surge_factor = 4.0;
  schedule.surge_period = 2'000'000'000;
  schedule.surge_on = 1'000'000'000;  // on for the first half of each period
  BurstyLoad load(*cluster, FunctionId{100}, kNode1, 1, schedule, 43);
  cluster->finish_setup();
  load.start();
  psim.run_until(9'000'000'000);
  // Surge seconds (4 and 6) should see ~4x the base-rate seconds (5 and 7).
  const double surge = load.completions().bucket_value(4) +
                       load.completions().bucket_value(6);
  const double base = load.completions().bucket_value(5) +
                      load.completions().bucket_value(7);
  EXPECT_GT(surge, 2.5 * base);
}

TEST(HttpLoadGen, CountsErrorsSeparately) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = echo_cluster(psim);
  ingress::PalladiumIngress ing(*cluster, {});
  ing.expose_chain("/echo", 1);
  ing.finish_setup();
  cluster->finish_setup();

  HttpLoadGen::Config cfg;
  cfg.target = "/missing";  // 404s
  HttpLoadGen wrk(sched, ing, cfg);
  wrk.add_clients(2);
  psim.run_until(sched.now() + 300'000'000);
  wrk.stop();
  psim.run();
  EXPECT_GT(wrk.errors(), 0u);
  EXPECT_EQ(wrk.completed(), 0u);
}

}  // namespace
}  // namespace pd::workload
