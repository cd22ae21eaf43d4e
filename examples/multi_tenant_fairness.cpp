// Multi-tenant RDMA isolation in action: two production tenants and one
// noisy neighbour share a node pair's DNE. With DWRR (weights 4:2:1) the
// noisy tenant cannot starve the others; flip kUseDwrr to false to watch
// FCFS hand it the fabric.
//
//   $ ./examples/multi_tenant_fairness
#include <cstdio>

#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"

using namespace pd;

constexpr bool kUseDwrr = true;

int main() {
  sim::ParallelSim psim(1);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.engine.use_dwrr = kUseDwrr;
  cfg.engine.extra_per_msg_ns = 500;  // pin DNE capacity to make contention visible
  cfg.pool_buffers = 4096;
  cfg.buffer_bytes = 4096;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(NodeId{1});
  cluster.add_worker(NodeId{2});

  struct TenantSpec {
    const char* name;
    TenantId id;
    std::uint32_t weight;
    double offered_rps;
  };
  const TenantSpec tenants[] = {
      {"checkout-svc (w=4)", TenantId{1}, 4, 120'000},
      {"search-svc   (w=2)", TenantId{2}, 2, 120'000},
      {"batch-crawler(w=1)", TenantId{3}, 1, 300'000},  // noisy neighbour
  };

  std::vector<std::unique_ptr<workload::BurstyLoad>> loads;
  std::uint32_t next_fn = 1;
  for (const auto& t : tenants) {
    cluster.add_tenant(t.id, t.weight);
    const FunctionId fn{next_fn++};
    cluster.deploy(runtime::FunctionSpec{fn, "svc", t.id}, NodeId{2});
    cluster.add_chain(runtime::Chain{t.id.value(), t.name, t.id, 64,
                                     {{fn, 1'000, 64}}});
    workload::BurstyLoad::Schedule sched_spec;
    sched_spec.start = 0;
    sched_spec.stop = 10'000'000'000;
    sched_spec.rate_rps = t.offered_rps;
    loads.push_back(std::make_unique<workload::BurstyLoad>(
        cluster, FunctionId{100 + t.id.value()}, NodeId{1}, t.id.value(),
        sched_spec, /*seed=*/7 * t.id.value()));
  }
  cluster.finish_setup();
  for (auto& l : loads) l->start();
  psim.run_until(11'000'000'000);

  std::printf("DNE scheduling: %s — 10 s of three-way contention\n",
              kUseDwrr ? "DWRR (weights 4:2:1)" : "FCFS (no isolation)");
  std::printf("%-22s %12s %12s %10s\n", "tenant", "offered RPS", "achieved",
              "dropped");
  double achieved[3];
  for (std::size_t i = 0; i < loads.size(); ++i) {
    achieved[i] = static_cast<double>(loads[i]->completed()) / 10.0;
    std::printf("%-22s %12.0f %12.0f %10llu\n", tenants[i].name,
                tenants[i].offered_rps, achieved[i],
                static_cast<unsigned long long>(loads[i]->dropped()));
  }
  std::printf("\nachieved ratio (expect ~4 : 2 : 1 under DWRR when all are "
              "backlogged):\n  %.2f : %.2f : 1\n",
              achieved[0] / achieved[2], achieved[1] / achieved[2]);
  return 0;
}
