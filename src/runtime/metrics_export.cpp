#include "runtime/metrics_export.hpp"

#include <string>

#include "core/engine.hpp"
#include "runtime/statestore.hpp"

namespace pd::runtime {

void export_metrics(Cluster& cluster, obs::Registry& reg) {
  for (const auto& node : cluster.workers()) {
    const std::string nl = "node=" + std::to_string(node->id().value());

    if (core::NetworkEngine* eng = node->palladium_engine()) {
      const core::EngineCounters& ec = eng->counters();
      reg.counter("engine.tx_msgs", nl).set(ec.tx_msgs);
      reg.counter("engine.rx_msgs", nl).set(ec.rx_msgs);
      reg.counter("engine.recycled", nl).set(ec.recycled);
      reg.counter("engine.replenished", nl).set(ec.replenished);
      reg.counter("engine.drops_no_route", nl).set(ec.drops_no_route);
      reg.counter("engine.retransmits", nl).set(ec.retransmits);
      reg.counter("engine.acks_rx", nl).set(ec.acks_rx);
      reg.counter("engine.nacks_rx", nl).set(ec.nacks_rx);
      reg.counter("engine.dup_rx", nl).set(ec.dup_rx);
      reg.counter("engine.send_failures", nl).set(ec.send_failures);
      reg.counter("engine.requests_shed", nl).set(ec.requests_shed);
      reg.counter("engine.error_completions", nl).set(ec.error_completions);
      reg.counter("engine.errors_dropped", nl).set(ec.errors_dropped);
      reg.gauge("engine.tx_backlog", nl)
          .set(static_cast<double>(eng->tx_backlog()));

      const rdma::ConnectionStats& cs = eng->connections().stats();
      reg.counter("conn.establishments", nl).set(cs.establishments);
      reg.counter("conn.activations", nl).set(cs.activations);
      reg.counter("conn.deactivations", nl).set(cs.deactivations);
      reg.counter("conn.sends", nl).set(cs.sends);
      reg.counter("conn.reestablishments", nl).set(cs.reestablishments);
      reg.counter("conn.rebuild_retries", nl).set(cs.rebuild_retries);
    }

    if (rdma::Rnic* rnic = node->rnic()) {
      const rdma::RnicCounters& rc = rnic->counters();
      reg.counter("rnic.sends", nl).set(rc.sends);
      reg.counter("rnic.recvs", nl).set(rc.recvs);
      reg.counter("rnic.writes", nl).set(rc.writes);
      reg.counter("rnic.reads", nl).set(rc.reads);
      reg.counter("rnic.atomics", nl).set(rc.atomics);
      reg.counter("rnic.fetch_adds", nl).set(rc.fetch_adds);
      reg.counter("rnic.access_errors", nl).set(rc.access_errors);
      reg.counter("rnic.atomic_access_errors", nl)
          .set(rc.atomic_access_errors);
      reg.counter("rnic.rnr_events", nl).set(rc.rnr_events);
      reg.counter("rnic.rnr_drops", nl).set(rc.rnr_drops);
      reg.counter("rnic.datagrams", nl).set(rc.datagrams);
      reg.counter("rnic.cache_miss_wrs", nl).set(rc.cache_miss_wrs);
      reg.counter("rnic.payload_bytes", nl).set(rc.payload_bytes);
    }

    if (CartStoreClient* sc = cluster.cart_client(node->id())) {
      const CartStoreClient::Counters& cc = sc->counters();
      reg.counter("store.reads", nl).set(cc.reads);
      reg.counter("store.read_bytes", nl).set(cc.read_bytes);
      reg.counter("store.updates", nl).set(cc.updates);
      reg.counter("store.cas_acquires", nl).set(cc.cas_acquires);
      reg.counter("store.cas_conflicts", nl).set(cc.cas_conflicts);
      reg.counter("store.errors", nl).set(cc.errors);
    }

    if (dpu::Dpu* dpu = node->dpu()) {
      reg.counter("dma.transfers", nl).set(dpu->dma().transfers());
      reg.counter("dma.bytes_moved", nl).set(dpu->dma().bytes_moved());
    }

    for (const auto& tm : node->memory().pools()) {
      const std::string pl =
          nl + ",tenant=" + std::to_string(tm->tenant().value());
      reg.gauge("pool.in_use", pl)
          .set(static_cast<double>(tm->pool().in_use()));
      reg.gauge("pool.capacity", pl)
          .set(static_cast<double>(tm->pool().capacity()));
    }
  }

  if (cluster.rdma_net() != nullptr) {
    reg.counter("fabric.frames").set(cluster.rdma_net()->fabric().frames());
    reg.counter("fabric.frames_dropped")
        .set(cluster.rdma_net()->fabric().frames_dropped());
  }

  // PDES self-metrics. Every value here is a pure function of the model —
  // identical for any worker-thread count — so the export stays
  // byte-comparable across --threads runs. Epoch and skip-ahead counts
  // depend on the driver (one-thread windows vs threaded epochs), and
  // barrier_wait_ns on the wall clock; benches report those separately,
  // outside golden-diffed artifacts.
  sim::ParallelSim& psim = cluster.parallel();
  reg.counter("pdes.mailbox_msgs").set(psim.mailbox_msgs());
  for (std::size_t k = 0; k < psim.shard_count(); ++k) {
    reg.counter("pdes.shard_events", "shard=" + std::to_string(k))
        .set(psim.shard(k).events_processed());
  }
}

}  // namespace pd::runtime
