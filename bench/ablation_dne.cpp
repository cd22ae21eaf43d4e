// Ablations over the DNE design choices DESIGN.md calls out (§3.2-§3.5):
//   A. CQE batching in the run-to-completion RX loop (rx_batch)
//   B. RC connection pool width per (peer, tenant)
//   C. Shadow-QP active-set cap vs RNIC QP-cache thrashing at high tenant
//      counts (the motivation for [52]'s mechanism, §3.3)
//   D. SRQ provisioning depth vs RNR stalls under bursts
// Not a paper figure: this regenerates the *reasons* behind the design.
#include <memory>

#include "bench_common.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr sim::Duration kRun = 1'500'000'000;

struct Result {
  double rps = 0;
  double p99_us = 0;
  std::uint64_t rnr = 0;
  std::uint64_t cache_miss = 0;
};

Result run_echo(core::EngineConfig engine_cfg, int tenants, int clients) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.engine = engine_cfg;
  cfg.pool_buffers = 2048;
  cfg.buffer_bytes = 4096;
  cfg.cpu_cores_per_node = 32;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);

  std::vector<std::unique_ptr<workload::ChainDriver>> drivers;
  for (int t = 1; t <= tenants; ++t) {
    const TenantId tenant{static_cast<std::uint32_t>(t)};
    cluster->add_tenant(tenant, 1);
    const FunctionId fn{static_cast<std::uint32_t>(t)};
    cluster->deploy(runtime::FunctionSpec{fn, "echo", tenant}, kNode2);
    cluster->add_chain(runtime::Chain{static_cast<std::uint32_t>(t), "echo",
                                      tenant, 128,
                                      {{fn, 3'000, 128}}});
    drivers.push_back(std::make_unique<workload::ChainDriver>(
        *cluster, FunctionId{1000 + static_cast<std::uint32_t>(t)}, kNode1,
        static_cast<std::uint32_t>(t)));
  }
  cluster->finish_setup();
  for (auto& d : drivers) d->start(clients);
  psim.run_until(sched.now() + kRun);
  for (auto& d : drivers) d->stop();
  psim.run();

  Result r;
  std::uint64_t total = 0;
  sim::LatencyHistogram merged;
  for (auto& d : drivers) {
    total += d->completed();
    merged.merge(d->latencies());
  }
  r.rps = static_cast<double>(total) / sim::to_sec(kRun);
  r.p99_us = sim::to_us(merged.quantile(0.99));
  r.rnr = cluster->worker(kNode1).rnic()->counters().rnr_events +
          cluster->worker(kNode2).rnic()->counters().rnr_events;
  r.cache_miss = cluster->worker(kNode1).rnic()->counters().cache_miss_wrs +
                 cluster->worker(kNode2).rnic()->counters().cache_miss_wrs;
  return r;
}

}  // namespace

int main() {
  using namespace pd::bench;

  print_title(
      "Ablation A: RX CQE batch size (run-to-completion loop, §3.2)\n"
      "Batching amortizes loop dispatch on the wimpy DPU core");
  {
    Table t({"rx_batch", "RPS", "p99 (us)"});
    for (int batch : {1, 4, 8, 32}) {
      core::EngineConfig cfg;
      cfg.rx_batch = batch;
      const auto r = run_echo(cfg, 1, 32);
      t.add_row({std::to_string(batch), fmt_k(r.rps), fmt(r.p99_us)});
    }
    t.print();
  }

  print_title(
      "Ablation B: RC connections per (peer, tenant) (§3.3)\n"
      "Wider pools spread outstanding WRs across QPs");
  {
    Table t({"rc_connections", "RPS", "p99 (us)"});
    for (int conns : {1, 2, 4, 8}) {
      core::EngineConfig cfg;
      cfg.rc_connections = conns;
      const auto r = run_echo(cfg, 1, 32);
      t.add_row({std::to_string(conns), fmt_k(r.rps), fmt(r.p99_us)});
    }
    t.print();
  }

  print_title(
      "Ablation C: shadow-QP active cap vs QP-cache thrashing (§3.3, [52])\n"
      "96 tenants, one busy RC connection each; the RNIC cache holds 64\n"
      "active QPs. Uncapped, every QP stays active and thrashes the cache\n"
      "(per-WR penalty); the shadow-QP cap keeps the active set resident");
  {
    Table t({"active-QP policy", "RPS", "QP cache misses"});
    {
      core::EngineConfig cfg;
      cfg.rc_connections = 1;  // 96 tenants = 96 QPs > 64 cache slots
      const auto r = run_echo(cfg, 96, 2);
      t.add_row({"capped at cache size (PALLADIUM)", fmt_k(r.rps),
                 std::to_string(r.cache_miss)});
    }
    {
      core::EngineConfig cfg;
      cfg.rc_connections = 1;
      cfg.max_active_qps = 4096;  // effectively uncapped
      const auto r = run_echo(cfg, 96, 2);
      t.add_row({"uncapped (always-active QPs)", fmt_k(r.rps),
                 std::to_string(r.cache_miss)});
    }
    t.print();
  }

  print_title(
      "Ablation D: SRQ provisioning vs RNR stalls (§3.5.2)\n"
      "The core-thread replenisher must outrun consumption; shallow SRQs\n"
      "stall senders in receiver-not-ready state");
  {
    Table t({"srq_fill", "replenish period (us)", "RPS", "RNR events"});
    struct Cfg { int fill; sim::Duration period; };
    for (const Cfg c : {Cfg{4, 200'000}, Cfg{16, 50'000}, Cfg{64, 20'000},
                        Cfg{256, 20'000}}) {
      core::EngineConfig cfg;
      cfg.srq_fill = c.fill;
      cfg.replenish_period = c.period;
      const auto r = run_echo(cfg, 1, 64);
      t.add_row({std::to_string(c.fill), fmt(static_cast<double>(c.period) / 1e3, 0),
                 fmt_k(r.rps), std::to_string(r.rnr)});
    }
    t.print();
  }
  return 0;
}
