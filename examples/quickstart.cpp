// Quickstart: build a two-node Palladium cluster, deploy a two-function
// chain, push requests through the DPU-offloaded data plane, and read the
// results. This is the smallest end-to-end use of the public API.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"

using namespace pd;

int main() {
  // 1. A deterministic simulated cluster: every node, NIC and DPU share
  //    one virtual clock (a one-shard parallel simulation; more shards
  //    spread the nodes across OS threads with identical results).
  sim::ParallelSim psim(/*shards=*/1);

  // 2. Two worker nodes running Palladium's DPU network engine (DNE).
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 8;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(NodeId{1});
  cluster.add_worker(NodeId{2});

  // 3. One tenant (= one function chain, per §3.1) with its unified memory
  //    pool on every node, then two functions placed across the nodes.
  const TenantId tenant{1};
  cluster.add_tenant(tenant, /*weight=*/1);
  const FunctionId resize{1}, store{2};
  cluster.deploy(runtime::FunctionSpec{resize, "thumbnail-resize", tenant},
                 NodeId{1});
  cluster.deploy(runtime::FunctionSpec{store, "blob-store", tenant}, NodeId{2});

  // 4. The chain: entry -> resize (80 us compute, emits 8 KiB) ->
  //    store (40 us, acks 128 B) -> entry. The resize->store hop crosses
  //    nodes: descriptor via Comch to the DNE, payload via two-sided RDMA.
  cluster.add_chain(runtime::Chain{
      /*id=*/1, "thumbnail", tenant, /*request_payload=*/4096,
      {{resize, 80'000, 8192}, {store, 40'000, 128}}});

  // 5. A closed-loop driver (8 clients, wrk-style) on node 1.
  workload::ChainDriver driver(cluster, FunctionId{100}, NodeId{1}, 1);
  cluster.finish_setup();  // RC connection pools, routing sync

  driver.start(8);
  psim.run_until(2'000'000'000);  // 2 s of virtual time
  driver.stop();
  psim.run();

  // 6. Results.
  std::printf("thumbnail chain, 8 closed-loop clients, 2 s:\n");
  std::printf("  completed:   %llu requests (%.0f RPS)\n",
              static_cast<unsigned long long>(driver.completed()),
              static_cast<double>(driver.completed()) / 2.0);
  std::printf("  latency:     mean %.1f us, p50 %.1f us, p99 %.1f us\n",
              driver.latencies().mean_ns() / 1e3,
              sim::to_us(driver.latencies().quantile(0.5)),
              sim::to_us(driver.latencies().quantile(0.99)));

  auto* dne = cluster.worker(NodeId{1}).palladium_engine();
  std::printf("  node-1 DNE:  %llu tx, %llu rx, %llu buffers recycled\n",
              static_cast<unsigned long long>(dne->counters().tx_msgs),
              static_cast<unsigned long long>(dne->counters().rx_msgs),
              static_cast<unsigned long long>(dne->counters().recycled));
  std::printf("  zero copies: payloads moved only by (simulated) RNIC DMA\n");
  return 0;
}
