// Early vs deferred transport conversion, side by side (§3.6 / Fig. 4):
// the same HTTP workload served through PALLADIUM's HTTP/TCP-to-RDMA
// gateway and through a classic F-stack reverse proxy that keeps TCP all
// the way to the worker node.
//
//   $ ./examples/transport_conversion
#include <cstdio>

#include "ingress/palladium_ingress.hpp"
#include "ingress/proxy_ingress.hpp"
#include "runtime/function.hpp"
#include "workload/http_client.hpp"

using namespace pd;

namespace {

struct Outcome {
  double rps;
  double mean_ms;
};

Outcome serve(bool early_conversion) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = early_conversion ? runtime::SystemKind::kPalladiumDne
                                : runtime::SystemKind::kSpright;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(NodeId{1});
  cluster.add_worker(NodeId{2});
  cluster.add_tenant(TenantId{1}, 1);
  cluster.deploy(runtime::FunctionSpec{FunctionId{1}, "api", TenantId{1}},
                 NodeId{1});
  cluster.add_chain(runtime::Chain{1, "api", TenantId{1}, 512,
                                   {{FunctionId{1}, 20'000, 2048}}});

  std::unique_ptr<ingress::IngressFrontend> ing;
  if (early_conversion) {
    auto p = std::make_unique<ingress::PalladiumIngress>(
        cluster, ingress::PalladiumIngress::Config{});
    p->expose_chain("/api", 1);
    p->finish_setup();
    ing = std::move(p);
  } else {
    ingress::ProxyIngress::Config icfg;
    icfg.stack = proto::StackKind::kFstack;  // the stronger baseline
    auto p = std::make_unique<ingress::ProxyIngress>(cluster, icfg);
    p->expose_chain("/api", 1);
    p->finish_setup();
    ing = std::move(p);
  }
  cluster.finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/api";
  wcfg.body = std::string(400, 'j');
  wcfg.client_cores = 16;
  workload::HttpLoadGen wrk(sched, *ing, wcfg);
  wrk.add_clients(32);
  psim.run_until(4'000'000'000);
  wrk.stop();
  psim.run();
  return {static_cast<double>(wrk.completed()) / 4.0,
          wrk.latencies().mean_ns() / 1e6};
}

}  // namespace

int main() {
  const Outcome early = serve(true);
  const Outcome deferred = serve(false);

  std::printf("same API, same workload (32 clients, 4 s), two gateways:\n\n");
  std::printf("  %-38s %10s %12s\n", "design", "RPS", "mean ms");
  std::printf("  %-38s %10.0f %12.2f\n",
              "early conversion (PALLADIUM, HTTP->RDMA)", early.rps,
              early.mean_ms);
  std::printf("  %-38s %10.0f %12.2f\n",
              "deferred conversion (F-stack proxy)", deferred.rps,
              deferred.mean_ms);
  std::printf("\nearly conversion advantage: x%.2f RPS, x%.2f latency\n",
              early.rps / deferred.rps, deferred.mean_ms / early.mean_ms);
  std::printf("the proxy terminates TCP twice and parses HTTP three times "
              "per request;\nPALLADIUM does both exactly once, at the edge "
              "(§3.6).\n");
  return 0;
}
