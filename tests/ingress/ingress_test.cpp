// End-to-end HTTP tests for the three cluster ingress designs (§4.1.3):
// client -> ingress -> chain -> back, with real HTTP bytes on both edges.
#include "ingress/palladium_ingress.hpp"
#include "ingress/proxy_ingress.hpp"

#include <gtest/gtest.h>

#include "obs/hub.hpp"
#include "runtime/function.hpp"
#include "workload/http_client.hpp"

namespace pd::ingress {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kFnA{1};
constexpr FunctionId kFnB{2};
constexpr std::uint32_t kChain = 1;

std::unique_ptr<runtime::Cluster> make_cluster(sim::ParallelSim& psim,
                                               runtime::SystemKind sys) {
  runtime::ClusterConfig cfg;
  cfg.system = sys;
  cfg.cpu_cores_per_node = 8;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "a", kTenant}, kNode1);
  cluster->deploy(runtime::FunctionSpec{kFnB, "b", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{kChain, "echo", kTenant, 128,
                                    {{kFnA, 10'000, 128},
                                     {kFnB, 15'000, 256},
                                     {kFnA, 10'000, 400}}});
  return cluster;
}

TEST(PalladiumIngressTest, HttpToRdmaRoundTrip) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = make_cluster(psim, runtime::SystemKind::kPalladiumDne);
  PalladiumIngress::Config icfg;
  PalladiumIngress ing(*cluster, icfg);
  ing.expose_chain("/echo", kChain);
  ing.finish_setup();
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  wcfg.body = "request-body";
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(4);
  psim.run_until(sched.now() + 2'000'000'000);
  wrk.stop();
  psim.run();

  EXPECT_GT(wrk.completed(), 100u);
  EXPECT_EQ(wrk.errors(), 0u);
  EXPECT_EQ(ing.responses(), wrk.completed());
  // Response body is the chain's final 400-byte payload.
  EXPECT_LT(wrk.latencies().quantile(0.5), 2'000'000);
}

TEST(PalladiumIngressTest, UnknownTargetGets404) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = make_cluster(psim, runtime::SystemKind::kPalladiumDne);
  PalladiumIngress ing(*cluster, {});
  ing.expose_chain("/echo", kChain);
  ing.finish_setup();
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/nope";
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(1);
  psim.run_until(sched.now() + 200'000'000);
  wrk.stop();
  psim.run();
  EXPECT_GT(wrk.errors(), 0u);
  EXPECT_EQ(wrk.completed(), 0u);
}

class ProxyIngressKinds
    : public ::testing::TestWithParam<proto::StackKind> {};

TEST_P(ProxyIngressKinds, HttpProxyRoundTrip) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  auto cluster = make_cluster(psim, runtime::SystemKind::kSpright);
  ProxyIngress::Config icfg;
  icfg.stack = GetParam();
  icfg.cores = 2;
  ProxyIngress ing(*cluster, icfg);
  ing.expose_chain("/echo", kChain);
  ing.finish_setup();
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(4);
  psim.run_until(sched.now() + 2'000'000'000);
  wrk.stop();
  psim.run();

  EXPECT_GT(wrk.completed(), 50u);
  EXPECT_EQ(wrk.errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Stacks, ProxyIngressKinds,
                         ::testing::Values(proto::StackKind::kKernel,
                                           proto::StackKind::kFstack),
                         [](const auto& info) {
                           return info.param == proto::StackKind::kKernel
                                      ? "KIngress"
                                      : "FIngress";
                         });

TEST(IngressComparison, PalladiumBeatsProxiesOnSameWorkload) {
  // Shape check for Fig. 13: Palladium ingress > F-Ingress > K-Ingress in
  // RPS with one ingress core and many clients.
  auto run = [&](int variant) -> double {
    sim::ParallelSim psim(1);
    sim::Scheduler& sched = psim.shard(0);
    auto cluster = make_cluster(psim, variant == 0
                                           ? runtime::SystemKind::kPalladiumDne
                                           : runtime::SystemKind::kSpright);
    std::unique_ptr<IngressFrontend> ing;
    PalladiumIngress* pal = nullptr;
    if (variant == 0) {
      PalladiumIngress::Config icfg;
      icfg.initial_workers = 1;
      auto p = std::make_unique<PalladiumIngress>(*cluster, icfg);
      pal = p.get();
      ing = std::move(p);
    } else {
      ProxyIngress::Config icfg;
      icfg.stack = variant == 1 ? proto::StackKind::kFstack
                                : proto::StackKind::kKernel;
      icfg.cores = 1;
      ing = std::make_unique<ProxyIngress>(*cluster, icfg);
    }
    ing->expose_chain("/echo", kChain);
    if (pal != nullptr) {
      pal->finish_setup();
    } else {
      static_cast<ProxyIngress*>(ing.get())->finish_setup();
    }
    cluster->finish_setup();

    workload::HttpLoadGen::Config wcfg;
    wcfg.target = "/echo";
    wcfg.client_cores = 16;
    workload::HttpLoadGen wrk(sched, *ing, wcfg);
    wrk.add_clients(32);
    const auto start = sched.now();
    psim.run_until(start + 4'000'000'000);
    wrk.stop();
    psim.run();
    return static_cast<double>(wrk.completed()) / 4.0;
  };

  const double palladium = run(0);
  const double f_ingress = run(1);
  const double k_ingress = run(2);
  EXPECT_GT(palladium, f_ingress);
  EXPECT_GT(f_ingress, k_ingress);
}

TEST(PalladiumIngressTest, AutoscalerAddsWorkersUnderLoad) {
  // A near-zero-compute chain so the single ingress worker, not the
  // functions, is the first bottleneck (else its utilization never
  // crosses the 60% scale-up threshold).
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig ccfg;
  ccfg.system = runtime::SystemKind::kPalladiumDne;
  ccfg.cpu_cores_per_node = 8;
  ccfg.pool_buffers = 2048;
  auto cluster = std::make_unique<runtime::Cluster>(psim, ccfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "echo", kTenant}, kNode1);
  cluster->add_chain(runtime::Chain{kChain, "echo", kTenant, 64,
                                    {{kFnA, 1'000, 64}}});
  PalladiumIngress::Config icfg;
  icfg.initial_workers = 1;
  icfg.max_workers = 4;
  icfg.autoscale = true;
  PalladiumIngress ing(*cluster, icfg);
  ing.expose_chain("/echo", kChain);
  ing.finish_setup();
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  wcfg.client_cores = 32;
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(64);
  psim.run_until(sched.now() + 10'000'000'000);
  wrk.stop();
  psim.run();

  EXPECT_GT(ing.scale_events(), 0u);
  EXPECT_GT(ing.active_workers(), 1);
}

TEST(PalladiumIngressTest, UsefulCpuSeriesKeepsWorkOfScaledDownWorker) {
  // Fig. 14's useful-CPU series must account for every busy nanosecond of
  // every ingress worker, including the work a worker did in the second
  // it was scaled down.
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig ccfg;
  ccfg.system = runtime::SystemKind::kPalladiumDne;
  ccfg.cpu_cores_per_node = 8;
  auto cluster = std::make_unique<runtime::Cluster>(psim, ccfg);
  cluster->enable_shard_profiling();
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kFnA, "echo", kTenant}, kNode1);
  cluster->add_chain(runtime::Chain{kChain, "echo", kTenant, 64,
                                    {{kFnA, 1'000, 64}}});
  PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  PalladiumIngress ing(*cluster, icfg);
  ing.expose_chain("/echo", kChain);
  ing.finish_setup();
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(8);
  const sim::TimePoint start = sched.now();
  psim.run_until(start + 1'500'000'000);
  ing.scale_to(1);  // mid-second, with both workers busy
  psim.run_until(start + 2'500'000'000);
  wrk.stop();
  psim.run();
  // Idle past two more sampling ticks so the series covers all work.
  psim.run_until(sched.now() + 2'000'000'000);

  obs::Hub hub;
  cluster->merge_observability(hub);
  const double busy_s =
      static_cast<double>(hub.ledger.profile_prefix_ns("ingress/worker/")) /
      1e9;
  sim::TimeSeries& series = ing.useful_cpu_series();
  double series_s = 0;
  for (std::size_t i = 0; i < series.num_buckets(); ++i) {
    series_s += series.bucket_value(i);
  }
  ASSERT_EQ(ing.active_workers(), 1);
  ASSERT_GT(busy_s, 0.5);
  EXPECT_NEAR(series_s, busy_s, 1e-6);
}

}  // namespace
}  // namespace pd::ingress
