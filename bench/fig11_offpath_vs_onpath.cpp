// Figure 11 (§4.1.1): off-path DNE (cross-processor shared memory) vs
// on-path DNE (payloads staged through SoC memory by the slow SoC DMA).
// An echo server/client function pair is deployed on different nodes.
// Output: (1) RPS vs payload size on a single connection; (2) RPS vs
// concurrency at 1 KB payloads — plus the mean-latency deltas behind the
// paper's "up to 1.54x degradation / >20% latency reduction" claims.
#include <memory>

#include "bench_common.hpp"
#include "obs/hub.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "runtime/metrics_export.hpp"
#include "workload/driver.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kEcho{1};
constexpr sim::Duration kRun = 3'000'000'000;  // 3 s virtual

struct Result {
  double rps = 0;
  double mean_us = 0;
};

Result run(runtime::SystemKind system, std::uint32_t payload, int clients,
           obs::Hub* hub = nullptr) {
  // Metrics-only observation: the always-on registry histograms (notably
  // dne.soc_dma_ns) record every event into the shard hub, but per-request
  // span collection stays off — a 3 s closed-loop run would accumulate
  // millions of spans.
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = system;
  cfg.cpu_cores_per_node = 8;
  cfg.pool_buffers = 1024;
  cfg.buffer_bytes = 32 * 1024;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kEcho, "echo", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "echo", kTenant, payload,
                                    {{kEcho, 2'000, payload}}});
  workload::ChainDriver driver(*cluster, FunctionId{100}, kNode1, 1);
  cluster->finish_setup();

  driver.start(clients);
  const auto start = sched.now();
  psim.run_until(start + kRun);
  driver.stop();
  psim.run();

  if (hub != nullptr) {
    cluster->merge_observability(*hub);
    runtime::export_metrics(*cluster, hub->registry);
  }

  return {static_cast<double>(driver.completed()) / sim::to_sec(kRun),
          driver.latencies().mean_ns() / 1e3};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pd::bench;
  const bool metrics = flag_enabled(argc, argv, "--metrics");

  print_title(
      "Figure 11 (1): off-path vs on-path DNE — RPS, single connection, by "
      "payload size\nPaper reference: off-path up to ~1.3x RPS; gap grows "
      "with payload (SoC DMA per-byte cost)");
  {
    Table t({"payload", "off-path RPS", "on-path RPS", "off/on", "off-path us",
             "on-path us"});
    for (std::uint32_t payload : {64u, 256u, 1024u, 4096u}) {
      const auto off = run(runtime::SystemKind::kPalladiumDne, payload, 1);
      const auto on = run(runtime::SystemKind::kPalladiumOnPath, payload, 1);
      t.add_row({std::to_string(payload) + "B", fmt_k(off.rps), fmt_k(on.rps),
                 "x" + fmt(off.rps / on.rps, 2), fmt(off.mean_us),
                 fmt(on.mean_us)});
    }
    t.print();
  }

  print_title(
      "Figure 11 (2): off-path vs on-path DNE — RPS under concurrency (1KB "
      "payload)\nPaper reference: near-parity at low concurrency; on-path "
      "collapses as the serial SoC DMA engine saturates (up to 1.54x)");
  {
    Table t({"connections", "off-path RPS", "on-path RPS", "off/on",
             "off-path us", "on-path us"});
    for (int clients : {1, 2, 4, 8, 16, 32}) {
      const auto off = run(runtime::SystemKind::kPalladiumDne, 1024, clients);
      const auto on = run(runtime::SystemKind::kPalladiumOnPath, 1024, clients);
      t.add_row({std::to_string(clients), fmt_k(off.rps), fmt_k(on.rps),
                 "x" + fmt(off.rps / on.rps, 2), fmt(off.mean_us),
                 fmt(on.mean_us)});
    }
    t.print();
    print_note("off-path wins because the RNIC DMAs straight into host "
               "memory via the cross-processor mmap (Fig. 3 (2))");
  }

  if (metrics) {
    // Instrumented re-run of the concurrency-16 / 1 KB point: the per-hop
    // SoC-DMA histogram in the on-path snapshot is the figure's explanation
    // (the off-path snapshot has no dne.soc_dma_ns entries at all — payloads
    // never transit SoC memory).
    print_title("Metrics snapshots (16 connections, 1KB payload)");
    obs::Hub off_hub;
    obs::Hub on_hub;
    run(runtime::SystemKind::kPalladiumDne, 1024, 16, &off_hub);
    run(runtime::SystemKind::kPalladiumOnPath, 1024, 16, &on_hub);
    dump_registry(off_hub.registry, "fig11_metrics_offpath.json");
    dump_registry(on_hub.registry, "fig11_metrics_onpath.json");
    for (const char* dir : {"tx", "rx"}) {
      const std::string labels = std::string("dir=") + dir + ",node=2";
      if (on_hub.registry.has("dne.soc_dma_ns", labels)) {
        const auto& h = on_hub.registry.histogram_at("dne.soc_dma_ns", labels).hist();
        print_note("on-path soc_dma(" + std::string(dir) +
                   ", node2): " + h.summary());
      }
    }
    print_note(std::string("off-path snapshot has soc_dma histograms: ") +
               (off_hub.registry.has("dne.soc_dma_ns", "dir=tx,node=2")
                    ? "yes (unexpected!)"
                    : "no (payloads bypass SoC memory)"));
  }
  return 0;
}
