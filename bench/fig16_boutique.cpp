// Figure 16 + Table 2 (§4.3): Online Boutique end to end. Six data planes
// serve the three measured chains (Home Query, View Cart, Product Query)
// behind their respective ingresses:
//   PALLADIUM (DNE)  — DPU engine + HTTP/TCP-to-RDMA gateway
//   PALLADIUM (CNE)  — same engine on a host core (apples-to-apples)
//   FUYAO-F / FUYAO-K — one-sided + receiver copy, F-/K-Ingress proxy
//   SPRIGHT          — shared memory + kernel TCP inter-node, F-Ingress
//   NightCore        — single node, kernel ingress
// Output: RPS per chain at 20/60/80 clients (Fig. 16 (1)-(3)), mean
// latency (Table 2), and data-plane CPU/DPU core usage (Fig. 16 (4)-(6)).
//
// --scale swaps the six-system two-node comparison for a PALLADIUM (DNE)
// scale-out table: N workers on a leaf-spine fabric, one boutique cell per
// tenant, driven through the sharded epoch-barrier simulator (ISSUE 9).
//   fig16_boutique --scale [--nodes N] [--cells C] [--switch S]
//                  [--threads T] [--clients "a b c"] [--json FILE]
// e.g. the >=100k-client regime: --scale --nodes 64 --cells 32 --threads 4
//                  --clients "100000"
// --json writes one row per client count with only simulated-time leaves
// (requests, events, sim latencies, pdes_* protocol counters), so the file
// is byte-identical for every --threads value; tools/run_all.sh scale diffs
// it against tools/golden/pdes_scale.json. Wall clock and memory (process
// peak RSS; buffer-pool bytes touched vs reserved, workers plus gateway)
// stay in the table.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <cstring>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "ingress/palladium_ingress.hpp"
#include "ingress/proxy_ingress.hpp"
#include "runtime/boutique.hpp"
#include "runtime/function.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr sim::Duration kRun = 2'000'000'000;  // 2 s virtual measured window

enum class System {
  kPalladiumDne,
  kPalladiumCne,
  kFuyaoF,
  kFuyaoK,
  kSpright,
  kNightcore,
};

const char* name_of(System s) {
  switch (s) {
    case System::kPalladiumDne: return "PALLADIUM (DNE)";
    case System::kPalladiumCne: return "PALLADIUM (CNE)";
    case System::kFuyaoF: return "FUYAO-F";
    case System::kFuyaoK: return "FUYAO-K";
    case System::kSpright: return "SPRIGHT";
    case System::kNightcore: return "NightCore";
  }
  return "?";
}

struct Result {
  double rps = 0;
  double mean_ms = 0;
  double cpu_cores = 0;  ///< data-plane CPU cores (worker nodes, useful)
  double dpu_cores = 0;  ///< pinned DPU cores (DNE only)
  double pinned_cpu = 0; ///< busy-poll host cores (FUYAO/CNE engines)
};

Result run(System system, std::uint32_t chain, int clients) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 16;
  cfg.pool_buffers = 2048;
  switch (system) {
    case System::kPalladiumDne: cfg.system = runtime::SystemKind::kPalladiumDne; break;
    case System::kPalladiumCne: cfg.system = runtime::SystemKind::kPalladiumCne; break;
    case System::kFuyaoF:
    case System::kFuyaoK: cfg.system = runtime::SystemKind::kFuyao; break;
    case System::kSpright: cfg.system = runtime::SystemKind::kSpright; break;
    case System::kNightcore: cfg.system = runtime::SystemKind::kNightcore; break;
  }

  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  const bool single_node = system == System::kNightcore;
  if (!single_node) cluster->add_worker(kNode2);
  runtime::OnlineBoutique::deploy(*cluster, kNode1,
                                  single_node ? kNode1 : kNode2);

  std::unique_ptr<ingress::IngressFrontend> ing;
  if (system == System::kPalladiumDne || system == System::kPalladiumCne) {
    ingress::PalladiumIngress::Config icfg;
    icfg.initial_workers = 2;
    auto p = std::make_unique<ingress::PalladiumIngress>(*cluster, icfg);
    p->expose_chain("/run", chain);
    p->finish_setup();
    ing = std::move(p);
  } else {
    ingress::ProxyIngress::Config icfg;
    icfg.stack = (system == System::kFuyaoF || system == System::kSpright)
                     ? proto::StackKind::kFstack
                     : proto::StackKind::kKernel;
    // NightCore ships a simple built-in kernel ingress (single worker).
    icfg.cores = system == System::kNightcore ? 1 : 2;
    auto p = std::make_unique<ingress::ProxyIngress>(*cluster, icfg);
    p->expose_chain("/run", chain);
    p->finish_setup();
    ing = std::move(p);
  }
  cluster->finish_setup();

  // Snapshot CPU counters at the start of the measured window.
  const auto snapshot = [&] {
    sim::Duration cpu = 0;
    for (NodeId n : {kNode1, kNode2}) {
      if (!cluster->has_worker(n)) continue;
      cpu += cluster->worker(n).cpu().total_busy_ns();
    }
    return cpu;
  };
  const auto fn_compute = [&] {
    sim::Duration total = 0;
    for (std::uint32_t f = 1; f <= 10; ++f) {
      total += cluster->instance(FunctionId{f}).compute_ns_total();
    }
    return total;
  };

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/run";
  wcfg.body = std::string(128, 'x');
  wcfg.client_cores = clients;
  workload::HttpLoadGen wrk(sched, *ing, wcfg);
  wrk.add_clients(clients);

  // Warm up 1 s, then measure.
  psim.run_until(sched.now() + 1'000'000'000);
  const auto cpu0 = snapshot();
  const auto fn0 = fn_compute();
  const auto start = sched.now();
  psim.run_until(start + kRun);
  const auto cpu1 = snapshot();
  const auto fn1 = fn_compute();
  const auto measured_rps = wrk.rps(start, start + kRun);
  wrk.stop();
  psim.run();

  Result r;
  r.rps = measured_rps;
  r.mean_ms = wrk.latencies().mean_ns() / 1e6;
  const double wall = sim::to_sec(kRun);
  r.cpu_cores = (sim::to_sec(cpu1 - cpu0) - sim::to_sec(fn1 - fn0)) / wall;

  // Pinned cores: busy-polling engines occupy their core outright.
  for (NodeId n : {kNode1, kNode2}) {
    if (!cluster->has_worker(n)) continue;
    auto& node = cluster->worker(n);
    if (node.engine_core().busy_poll()) {
      if (system == System::kPalladiumDne) {
        r.dpu_cores += 1.0;  // a wimpy DPU core, not a host core
      } else {
        r.pinned_cpu += 1.0;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// --scale: PALLADIUM (DNE) on a multi-switch cluster via the parallel loop
// ---------------------------------------------------------------------------

struct ScaleSpec {
  int nodes = 32;
  std::size_t cells = 16;
  std::size_t nodes_per_switch = 8;
  unsigned threads = 1;
  std::vector<int> loads{64, 128, 256};
};

struct ScaleResult {
  int clients = 0;
  double rps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t skip_ahead_epochs = 0;
  std::uint64_t mailbox_msgs = 0;
  double wall_sec = 0;
  Bytes pool_touched = 0;
  Bytes pool_reserved = 0;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

ScaleResult run_scale(const ScaleSpec& spec, int clients) {
  constexpr sim::Duration kWarm = 500'000'000;   // 0.5 s
  constexpr sim::Duration kWindow = 1'000'000'000;  // 1 s measured

  const std::size_t shards =
      1 + (static_cast<std::size_t>(spec.nodes) + spec.nodes_per_switch - 1) /
              spec.nodes_per_switch;
  sim::ParallelSim psim(shards, spec.threads);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 16;
  cfg.pool_buffers = 2048;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.topology.nodes_per_switch = spec.nodes_per_switch;
  cfg.shard_mapping = runtime::ShardMapping::kLeafPerShard;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  sim::Scheduler& sched = psim.shard(0);

  std::vector<NodeId> nodes;
  for (int i = 0; i < spec.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(1 + i)};
    cluster->add_worker(id);
    nodes.push_back(id);
  }
  const auto cells =
      runtime::OnlineBoutique::deploy_cells(*cluster, nodes, spec.cells);

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  icfg.request_deadline = 0;  // closed-loop sweep, no retry storm
  ingress::PalladiumIngress ing(*cluster, icfg);
  const auto route = [](std::uint32_t cell) {
    return cell == 0 ? std::string("/run") : "/run#" + std::to_string(cell);
  };
  for (const auto& cell : cells) ing.expose_chain(route(cell.index), cell.home_query);
  ing.finish_setup();
  cluster->finish_setup();

  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  const int per_cell = clients / static_cast<int>(cells.size());
  int leftover = clients % static_cast<int>(cells.size());
  for (const auto& cell : cells) {
    const int n = per_cell + (leftover-- > 0 ? 1 : 0);
    if (n <= 0) continue;
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = route(cell.index);
    wcfg.body = std::string(128, 'x');
    wcfg.client_cores = n;
    auto gen = std::make_unique<workload::HttpLoadGen>(sched, ing, wcfg);
    gen->add_clients(n);
    gens.push_back(std::move(gen));
  }

  const auto requests_done = [&] {
    std::uint64_t total = 0;
    for (const auto& g : gens) total += g->latencies().count();
    return total;
  };

  psim.run_until(sched.now() + kWarm);
  const auto start = sched.now();
  const auto requests0 = requests_done();
  const auto events0 = psim.events_processed();
  const auto epochs0 = psim.epochs();
  const auto skip0 = psim.skip_ahead_epochs();
  const auto msgs0 = psim.mailbox_msgs();
  const auto wall0 = std::chrono::steady_clock::now();
  psim.run_until(start + kWindow);
  const auto wall1 = std::chrono::steady_clock::now();

  ScaleResult r;
  r.clients = clients;
  r.wall_sec = std::chrono::duration<double>(wall1 - wall0).count();
  r.requests = requests_done() - requests0;
  r.events = psim.events_processed() - events0;
  r.epochs = psim.epochs() - epochs0;
  r.skip_ahead_epochs = psim.skip_ahead_epochs() - skip0;
  r.mailbox_msgs = psim.mailbox_msgs() - msgs0;
  for (const auto& g : gens) r.rps += g->rps(start, start + kWindow);
  sim::LatencyHistogram merged;
  for (const auto& g : gens) merged.merge(g->latencies());
  r.mean_ms = merged.mean_ns() / 1e6;
  r.p50_ms = static_cast<double>(merged.quantile(0.5)) / 1e6;
  r.p99_ms = static_cast<double>(merged.quantile(0.99)) / 1e6;
  for (auto& g : gens) g->stop();
  psim.run();
  const auto add_pools = [&r](const mem::MemoryDomain& m) {
    r.pool_touched += m.touched_bytes();
    r.pool_reserved += m.footprint();
  };
  add_pools(ing.memory());
  for (const auto& w : cluster->workers()) add_pools(w->memory());
  return r;
}

/// The deterministic leaves of every scale row; no wall clock, no thread
/// count, so runs at any --threads produce the same bytes.
std::string scale_json(const ScaleSpec& spec,
                       const std::vector<ScaleResult>& rows) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n  \"bench\": \"fig16_boutique --scale\",\n"
     << "  \"chain\": \"home_query\",\n"
     << "  \"nodes\": " << spec.nodes << ",\n  \"cells\": " << spec.cells
     << ",\n  \"nodes_per_switch\": " << spec.nodes_per_switch
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleResult& r = rows[i];
    os << "    {\"clients\": " << r.clients << ", \"requests\": " << r.requests
       << ", \"events\": " << r.events << ", \"rps\": " << r.rps
       << ", \"mean_ms\": " << r.mean_ms << ", \"sim_p50_ms\": " << r.p50_ms
       << ", \"sim_p99_ms\": " << r.p99_ms << ", \"pdes_epochs\": " << r.epochs
       << ", \"pdes_skip_ahead_epochs\": " << r.skip_ahead_epochs
       << ", \"pdes_mailbox_msgs\": " << r.mailbox_msgs << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

int scale_main(const ScaleSpec& spec, const char* json_path) {
  using namespace pd::bench;
  constexpr double kMiB = 1024.0 * 1024.0;
  const std::size_t leaves =
      (static_cast<std::size_t>(spec.nodes) + spec.nodes_per_switch - 1) /
      spec.nodes_per_switch;
  print_title("Scale-out: PALLADIUM (DNE) Online Boutique Home Query — " +
              std::to_string(spec.nodes) + " workers / " +
              std::to_string(leaves) + " leaf switches / " +
              std::to_string(spec.cells) + " cells, sharded across " +
              std::to_string(spec.threads) + " thread(s)");
  Table t({"clients", "RPS", "mean ms", "p99 ms", "epochs/sim-s",
           "wall Mevents/s", "peak RSS MiB", "pool touched / reserved MiB"});
  std::vector<ScaleResult> rows;
  for (int clients : spec.loads) {
    const ScaleResult& r = rows.emplace_back(run_scale(spec, clients));
    if (r.requests == 0) {
      std::cerr << "fig16_boutique: no request completed at " << clients
                << " clients\n";
      return 1;
    }
    t.add_row({std::to_string(clients), fmt_k(r.rps), fmt(r.mean_ms, 2),
               fmt(r.p99_ms, 2), fmt_k(static_cast<double>(r.epochs)),
               fmt(r.wall_sec > 0
                       ? static_cast<double>(r.events) / r.wall_sec / 1e6
                       : 0,
                   2),
               fmt(peak_rss_mib()),
               fmt(static_cast<double>(r.pool_touched) / kMiB) + " / " +
                   fmt(static_cast<double>(r.pool_reserved) / kMiB)});
  }
  t.print();
  print_note("one shard per leaf switch; per-pair lookahead batches every "
             "cross-leaf horizon to ~4.5 us (ISSUE 9)");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::cerr << "fig16_boutique: cannot write " << json_path << "\n";
      return 1;
    }
    const std::string j = scale_json(spec, rows);
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pd::bench;
  bool scale = false;
  ScaleSpec spec;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      scale = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      spec.nodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      spec.cells = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--switch") == 0 && i + 1 < argc) {
      spec.nodes_per_switch = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      spec.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      spec.loads.clear();
      std::istringstream is(argv[++i]);
      for (int c; is >> c;) spec.loads.push_back(c);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: fig16_boutique [--scale [--nodes N] [--cells C] "
                   "[--switch S] [--threads T] [--clients \"a b c\"] "
                   "[--json FILE]]\n";
      return 2;
    }
  }
  if (json_path != nullptr && !scale) {
    std::cerr << "fig16_boutique: --json needs --scale\n";
    return 2;
  }
  if (scale) {
    if (spec.nodes < 2 || spec.cells == 0 || spec.nodes_per_switch == 0 ||
        spec.threads == 0 || spec.loads.empty()) {
      std::cerr << "fig16_boutique: --scale wants >=2 nodes, >=1 cell, "
                   ">=1 per-switch, >=1 thread and a client list\n";
      return 2;
    }
    return scale_main(spec, json_path);
  }
  const System systems[] = {System::kPalladiumDne, System::kPalladiumCne,
                            System::kFuyaoF,       System::kFuyaoK,
                            System::kSpright,      System::kNightcore};
  const std::uint32_t chains[] = {runtime::OnlineBoutique::kHomeQuery,
                                  runtime::OnlineBoutique::kViewCart,
                                  runtime::OnlineBoutique::kProductQuery};
  const int loads[] = {20, 60, 80};

  // results[system][chain][load]
  Result results[6][3][3];
  for (int s = 0; s < 6; ++s) {
    for (int c = 0; c < 3; ++c) {
      for (int l = 0; l < 3; ++l) {
        results[s][c][l] = run(systems[s], chains[c], loads[l]);
      }
    }
  }

  for (int c = 0; c < 3; ++c) {
    print_title(std::string("Figure 16 (") + std::to_string(c + 1) +
                "): Online Boutique RPS — " +
                runtime::OnlineBoutique::chain_name(chains[c]) +
                "\nPaper reference: DNE 2.1-4.1x FUYAO-F, 2.4-4.1x SPRIGHT, "
                "5.1-20.9x NightCore; DNE 1.3-1.8x CNE beyond 20 clients");
    Table t({"system", "20 clients", "60 clients", "80 clients"});
    for (int s = 0; s < 6; ++s) {
      t.add_row({name_of(systems[s]), fmt_k(results[s][c][0].rps),
                 fmt_k(results[s][c][1].rps), fmt_k(results[s][c][2].rps)});
    }
    t.print();
    const double dne80 = results[0][c][2].rps;
    print_note("DNE speedups @80 clients: vs CNE x" +
               fmt(dne80 / results[1][c][2].rps, 2) + ", vs FUYAO-F x" +
               fmt(dne80 / results[2][c][2].rps, 2) + ", vs SPRIGHT x" +
               fmt(dne80 / results[4][c][2].rps, 2) + ", vs NightCore x" +
               fmt(dne80 / results[5][c][2].rps, 2));
  }

  print_title(
      "Table 2: average latency (ms) of Online Boutique chains\n"
      "Paper reference @Home Query: DNE 1.12/2.55/3.19, CNE 1.43/4.39/5.62, "
      "FUYAO-F 3.53/5.96/7.53, SPRIGHT 2.66/7.78/10.4, NightCore 10.77/32.4/42.8");
  {
    Table t({"system", "HomeQ 20", "HomeQ 60", "HomeQ 80", "Cart 20", "Cart 60",
             "Cart 80", "Prod 20", "Prod 60", "Prod 80"});
    for (int s = 0; s < 6; ++s) {
      std::vector<std::string> row{name_of(systems[s])};
      for (int c = 0; c < 3; ++c) {
        for (int l = 0; l < 3; ++l) {
          row.push_back(fmt(results[s][c][l].mean_ms, 2));
        }
      }
      t.add_row(row);
    }
    t.print();
  }

  print_title(
      "Figure 16 (4)-(6): efficiency of offloading — data-plane core usage "
      "at 80 clients\nPaper reference: FUYAO saturates >5 CPU cores; "
      "PALLADIUM (DNE) holds 2 wimpy DPU cores at 100% and frees up to 7 "
      "CPU cores");
  {
    Table t({"system", "chain", "CPU cores (useful)", "pinned CPU cores",
             "DPU cores"});
    for (int s = 0; s < 6; ++s) {
      for (int c = 0; c < 3; ++c) {
        const auto& r = results[s][c][2];
        t.add_row({name_of(systems[s]),
                   runtime::OnlineBoutique::chain_name(chains[c]),
                   fmt(r.cpu_cores, 2), fmt(r.pinned_cpu, 1),
                   fmt(r.dpu_cores, 1)});
      }
    }
    t.print();
    const double dne_cpu = results[0][0][2].cpu_cores;
    const double fuyao_cpu =
        results[3][0][2].cpu_cores + results[3][0][2].pinned_cpu;
    print_note("Home Query @80: FUYAO-K worker-side CPU vs DNE: " +
               fmt(fuyao_cpu, 2) + " vs " + fmt(dne_cpu, 2) + " cores (x" +
               fmt(fuyao_cpu / dne_cpu, 1) + "), DNE offloads to 2 DPU cores");
  }
  return 0;
}
