// Figure 13 (§4.1.3): transport protocol adaptation at the cluster edge.
// One ingress core serves an HTTP echo function on a worker node behind
// three designs: K-Ingress (kernel NGINX proxy), F-Ingress (F-stack NGINX
// proxy; worker still terminates TCP) and PALLADIUM's HTTP/TCP-to-RDMA
// gateway. Output: mean end-to-end latency and RPS vs client count.
#include <memory>

#include "bench_common.hpp"
#include "ingress/palladium_ingress.hpp"
#include "ingress/proxy_ingress.hpp"
#include "runtime/function.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kEcho{1};
constexpr sim::Duration kRun = 2'000'000'000;  // 2 s virtual

struct Result {
  double rps = 0;
  double mean_ms = 0;
};

enum class Design { kPalladium, kFIngress, kKIngress };

Result run(Design design, int clients) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = design == Design::kPalladium ? runtime::SystemKind::kPalladiumDne
                                            : runtime::SystemKind::kSpright;
  cfg.cpu_cores_per_node = 8;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kEcho, "http-echo", kTenant}, kNode1);
  cluster->add_chain(runtime::Chain{1, "echo", kTenant, 512,
                                    {{kEcho, 4'000, 512}}});

  std::unique_ptr<ingress::IngressFrontend> ing;
  if (design == Design::kPalladium) {
    ingress::PalladiumIngress::Config icfg;
    icfg.initial_workers = 1;  // one CPU core for the ingress
    auto p = std::make_unique<ingress::PalladiumIngress>(*cluster, icfg);
    p->expose_chain("/echo", 1);
    p->finish_setup();
    ing = std::move(p);
  } else {
    ingress::ProxyIngress::Config icfg;
    icfg.stack = design == Design::kFIngress ? proto::StackKind::kFstack
                                             : proto::StackKind::kKernel;
    icfg.cores = 1;
    auto p = std::make_unique<ingress::ProxyIngress>(*cluster, icfg);
    p->expose_chain("/echo", 1);
    p->finish_setup();
    ing = std::move(p);
  }
  cluster->finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/echo";
  wcfg.body = std::string(256, 'x');
  wcfg.client_cores = 16;
  workload::HttpLoadGen wrk(sched, *ing, wcfg);
  wrk.add_clients(clients);
  const auto start = sched.now();
  psim.run_until(start + kRun);
  wrk.stop();
  psim.run();

  return {static_cast<double>(wrk.completed()) / sim::to_sec(kRun),
          wrk.latencies().mean_ns() / 1e6};
}

}  // namespace

int main() {
  using namespace pd::bench;

  print_title(
      "Figure 13 (1): cluster ingress designs — mean end-to-end latency (ms)\n"
      "Paper reference: K-Ingress up to 11.7x PALLADIUM's latency; F-Ingress "
      "~3.4x");
  Table lat({"#clients", "PALLADIUM", "F-Ingress", "K-Ingress", "K/P", "F/P"});
  Table rps({"#clients", "PALLADIUM", "F-Ingress", "K-Ingress", "P/K", "P/F"});
  for (int clients : {4, 8, 16, 32, 64}) {
    const auto p = run(Design::kPalladium, clients);
    const auto f = run(Design::kFIngress, clients);
    const auto k = run(Design::kKIngress, clients);
    lat.add_row({std::to_string(clients), fmt(p.mean_ms, 2), fmt(f.mean_ms, 2),
                 fmt(k.mean_ms, 2), "x" + fmt(k.mean_ms / p.mean_ms, 1),
                 "x" + fmt(f.mean_ms / p.mean_ms, 1)});
    rps.add_row({std::to_string(clients), fmt_k(p.rps), fmt_k(f.rps),
                 fmt_k(k.rps), "x" + fmt(p.rps / k.rps, 1),
                 "x" + fmt(p.rps / f.rps, 1)});
  }
  lat.print();

  print_title(
      "Figure 13 (2): cluster ingress designs — RPS vs #clients\n"
      "Paper reference: PALLADIUM up to 11.4x K-Ingress and 3.2x F-Ingress");
  rps.print();
  print_note("the proxies terminate TCP twice (edge + worker) — deferred "
             "transport conversion doubles protocol work (Fig. 4 (1))");
  return 0;
}
