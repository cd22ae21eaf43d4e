// Figure 15 (§4.2): multi-tenancy support for RDMA. Three tenants with
// weights 6:1:2 share one DNE configured to saturate at ~110K RPS on its
// single DPU core. Tenant 1 runs the whole 4 minutes; tenant 2 joins at
// 20 s and leaves at 3m20s; tenant 3 (burstier) runs 1m30s-2m30s.
// Output: per-tenant achieved RPS per 10 s interval under (1) FCFS and
// (2) DWRR — FCFS lets the bursty tenants starve tenant 1; DWRR holds the
// 6:1:2 split.
#include <memory>

#include "bench_common.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "workload/driver.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr sim::Duration kSecond = 1'000'000'000;
// The paper runs 4 minutes of wall time; we compress 10x (24 virtual
// seconds, same arrival/departure pattern, same absolute rates) to keep
// the event count tractable. Shares and shapes are unaffected: DWRR
// reaches its steady split within milliseconds.
constexpr sim::TimePoint kExperiment = 24 * kSecond;

struct TenantSeries {
  std::vector<double> rps_per_10s;
};

std::vector<TenantSeries> run(bool use_dwrr) {
  sim::ParallelSim psim(1);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  cfg.pool_buffers = 4096;
  cfg.buffer_bytes = 4096;
  cfg.engine.use_dwrr = use_dwrr;
  // Pin the DNE's single-core capacity near the paper's ~110K RPS
  // operating point (§4.2 configures the same) so the tenant rates below
  // can be the paper's own.
  cfg.engine.extra_per_msg_ns = 300;
  cfg.engine.srq_fill = 512;

  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);

  // Each tenant: a client function on node 1 (driver entry) and a server
  // function on node 2, so every request crosses the DNE twice.
  struct TenantSetup {
    TenantId tenant;
    std::uint32_t weight;
    workload::BurstyLoad::Schedule schedule;
  };
  const std::vector<TenantSetup> tenants = {
      {TenantId{1}, 6,
       {.start = 0, .stop = kExperiment, .rate_rps = 115'000}},
      {TenantId{2}, 1,  // joins at "20s", exits at "3m20s" (/10)
       {.start = 2 * kSecond, .stop = 20 * kSecond, .rate_rps = 40'000,
        .surge_factor = 2.0, .surge_period = 2 * kSecond,
        .surge_on = 600'000'000}},
      {TenantId{3}, 2,  // runs "1m30s-2m30s" (/10), burstier
       {.start = 9 * kSecond, .stop = 15 * kSecond, .rate_rps = 60'000,
        .surge_factor = 3.0, .surge_period = 1'200'000'000,
        .surge_on = 500'000'000}},
  };

  std::uint32_t next_fn = 1;
  std::vector<std::unique_ptr<workload::BurstyLoad>> loads;
  for (const auto& ts : tenants) {
    cluster->add_tenant(ts.tenant, ts.weight);
    const FunctionId server{next_fn++};
    cluster->deploy(runtime::FunctionSpec{server, "echo", ts.tenant}, kNode2);
    const std::uint32_t chain_id = ts.tenant.value();
    cluster->add_chain(runtime::Chain{chain_id, "echo", ts.tenant, 64,
                                      {{server, 1'000, 64}}});
    loads.push_back(std::make_unique<workload::BurstyLoad>(
        *cluster, FunctionId{1000 + ts.tenant.value()}, kNode1, chain_id,
        ts.schedule, /*seed=*/42 + ts.tenant.value()));
  }
  cluster->finish_setup();
  for (auto& l : loads) l->start();
  psim.run_until(kExperiment + kSecond);

  std::vector<TenantSeries> out;
  for (auto& l : loads) {
    TenantSeries series;
    for (int bucket = 0; bucket < 24; ++bucket) {
      series.rps_per_10s.push_back(
          l->completions().bucket_value(static_cast<std::size_t>(bucket)));
    }
    out.push_back(std::move(series));
  }
  return out;
}

void print_series(const char* title, const std::vector<TenantSeries>& s) {
  using namespace pd::bench;
  print_title(title);
  Table t({"t (paper s)", "Tenant-1 (w=6)", "Tenant-2 (w=1)",
           "Tenant-3 (w=2)"});
  for (std::size_t i = 0; i < s[0].rps_per_10s.size(); ++i) {
    t.add_row({std::to_string(i * 10), fmt_k(s[0].rps_per_10s[i]),
               fmt_k(s[1].rps_per_10s[i]), fmt_k(s[2].rps_per_10s[i])});
  }
  t.print();
}

}  // namespace

int main() {
  using namespace pd::bench;
  const auto fcfs = run(/*use_dwrr=*/false);
  print_series(
      "Figure 15 (1): 'FCFS' DNE without multi-tenancy support\n"
      "Paper reference: bursty tenants 2/3 starve tenant 1 on arrival",
      fcfs);

  const auto dwrr = run(/*use_dwrr=*/true);
  print_series(
      "Figure 15 (2): PALLADIUM DNE with DWRR multi-tenancy (weights 6:1:2)\n"
      "Paper reference (at their 110K capacity): ~90K/15K with T2 present; "
      "65K/11K/22K with T2+T3 — shares track weights exactly",
      dwrr);

  // Contention-window share summary (all three tenants active).
  double t1 = 0, t2 = 0, t3 = 0;
  for (std::size_t i = 10; i < 14; ++i) {
    t1 += dwrr[0].rps_per_10s[i];
    t2 += dwrr[1].rps_per_10s[i];
    t3 += dwrr[2].rps_per_10s[i];
  }
  print_note("DWRR contention-window shares (expect ~6 : 1 : 2): " +
             fmt(t1 / t2, 2) + " : 1 : " + fmt(t3 / t2, 2));
  return 0;
}
