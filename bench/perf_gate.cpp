// Wall-clock performance gate for the simulator itself (not the modeled
// system): a fixed-seed Online Boutique sweep measuring how fast the host
// machine chews through simulation events. Guards the hot path (scheduler
// slab/heap, EventFn dispatch, engine batching, PDES epoch protocol)
// against regressions that sim-time metrics cannot see.
//
// Modes:
//   perf_gate                 full sweep (20/60/80 clients), JSON to stdout
//   perf_gate --json FILE     full sweep, JSON written to FILE
//   perf_gate --check FILE    full sweep, then compare against the "after"
//                             (or sole) gate block in FILE — exits 1 on
//                             >10% wall-clock events/sec regression or >1%
//                             simulated-latency drift
//   perf_gate --smoke         1 small load, sub-second: ctest bench-smoke
//   perf_gate --scale         32 workers / 16 boutique cells on a
//                             leaf-spine fabric (nodes_per_switch 8) — the
//                             ISSUE 9 scale scenario
//   perf_gate --repeat N      run each load N times (default 3 for the
//                             full sweep, 1 for --smoke), report the
//                             median-throughput run; per-run wall clocks
//                             land in the JSON as "runs_wall_sec"
//   perf_gate --nodes N --cells C --clients K --switch S
//                             custom scale point (S = workers per leaf
//                             switch, 0 = flat fabric)
//
// The simulated p50/p99 double as a determinism tripwire: they depend only
// on the model, so any drift means behavior changed, not just speed. In
// sharded runs the pdes_* row fields (epochs, skip-ahead epochs, mailbox
// messages) are deterministic too — bench_gate.sh diffs them against a
// golden; pdes_barrier_wait_ms is wall clock and stays out of diffs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ingress/palladium_ingress.hpp"
#include "obs/hub.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

struct LoadSpec {
  int clients = 8;
  sim::Duration warm_ns = 0;
  sim::Duration run_ns = 0;
  int threads = 0;  ///< 0 = one shard (the serial simulation)
  int nodes = 2;
  int cells = 1;
  std::size_t nodes_per_switch = 0;  ///< 0 = flat single-switch fabric
  /// One shard per leaf switch instead of one per node (multi-switch only):
  /// intra-leaf chain traffic goes shard-local and every cross-shard link
  /// is a multi-us spine crossing — the epoch-rate collapse at scale.
  bool leaf_shards = false;
};

struct LoadResult {
  LoadSpec spec;
  double wall_sec = 0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  double sim_p50_ms = 0;
  double sim_p99_ms = 0;
  /// Flight-recorder peaks (simulated-time gauges): worst queue depth and
  /// buffer-pool occupancy the load ever reached. Recorded into the BENCH
  /// json so a PR that trades latency for queue growth is visible.
  double peak_tx_backlog = 0;
  double peak_pool_in_use = 0;
  /// PDES protocol cost over the measured window (sharded runs only; all
  /// deterministic except barrier_wait). Epochs per simulated second is
  /// the number that bounds what real cores can win — ISSUE 9's >=5x
  /// reduction claim is checked on exactly this field.
  std::uint64_t pdes_epochs = 0;
  std::uint64_t pdes_skip_ahead_epochs = 0;
  std::uint64_t pdes_mailbox_msgs = 0;
  double pdes_barrier_wait_ms = 0;
  /// Wall clock of every repeat (median run populates the rest).
  std::vector<double> runs_wall_sec;

  [[nodiscard]] double events_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(events) / wall_sec : 0;
  }
  [[nodiscard]] double events_per_request() const {
    return requests > 0
               ? static_cast<double>(events) / static_cast<double>(requests)
               : 0;
  }
  [[nodiscard]] double epochs_per_sim_sec() const {
    const double sim_sec = sim::to_sec(spec.run_ns);
    return sim_sec > 0 ? static_cast<double>(pdes_epochs) / sim_sec : 0;
  }
};

/// `spec.threads` == 0 runs the whole cluster on one shard (the serial
/// simulation); > 0 shards it (one shard per node or leaf, plus the edge
/// shard) across that many OS threads via the epoch-barrier parallel loop.
/// Simulated results are identical for every threads > 0 value; only wall
/// clock changes.
LoadResult run_load(const LoadSpec& spec) {
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 16;
  cfg.pool_buffers = 2048;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.topology.nodes_per_switch = spec.nodes_per_switch;
  std::size_t shards = 1;
  if (spec.threads > 0) {
    shards = 1 + static_cast<std::size_t>(spec.nodes);
    if (spec.leaf_shards) {
      cfg.shard_mapping = runtime::ShardMapping::kLeafPerShard;
      shards = 1 + (static_cast<std::size_t>(spec.nodes) +
                    spec.nodes_per_switch - 1) /
                       spec.nodes_per_switch;
    }
  }
  sim::ParallelSim psim(shards,
                        /*os_threads=*/static_cast<unsigned>(spec.threads));
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  sim::Scheduler& sched = psim.shard(0);
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(spec.nodes));
  for (int i = 0; i < spec.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(1 + i)};
    cluster->add_worker(id);
    nodes.push_back(id);
  }
  std::vector<runtime::OnlineBoutique::Cell> cells;
  if (spec.nodes == 2 && spec.cells == 1) {
    // The classic two-node layout, byte-identical with earlier trees.
    runtime::OnlineBoutique::deploy(*cluster, kNode1, kNode2);
    cells.push_back({0, runtime::OnlineBoutique::kTenant, kNode1, kNode2,
                     runtime::OnlineBoutique::kHomeQuery});
  } else {
    cells = runtime::OnlineBoutique::deploy_cells(
        *cluster, nodes, static_cast<std::size_t>(spec.cells));
  }

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  // Closed-loop clients + the 2 ms at-least-once deadline feed a retry
  // storm at >=60 clients (timeouts allocate duplicate buffers until the
  // pool is bled dry and every request sheds 503). The gate measures
  // simulator speed, not SLO machinery — run with the deadline off.
  icfg.request_deadline = 0;
  ingress::PalladiumIngress ing(*cluster, icfg);
  const auto route = [](std::uint32_t cell) {
    return cell == 0 ? std::string("/run") : "/run#" + std::to_string(cell);
  };
  for (const auto& cell : cells) {
    ing.expose_chain(route(cell.index), cell.home_query);
  }
  ing.finish_setup();
  cluster->finish_setup();

  // Flight recorder: sample queue depth / pool occupancy in simulated
  // time into the per-shard hubs, merged below. The sampler is a handful
  // of pure reads per simulated millisecond — noise next to the event loop.
  cluster->start_flight_recorder({});
  ing.start_flight_probes();

  // One closed-loop generator per cell (clients split evenly, first cells
  // absorb the remainder) so every cell sees traffic on its own chain.
  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  const int per_cell = spec.clients / static_cast<int>(cells.size());
  int leftover = spec.clients % static_cast<int>(cells.size());
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

  psim.run_until(sched.now() + spec.warm_ns);
  const auto start = sched.now();
  const auto events0 = psim.events_processed();
  const auto requests0 = requests_done();
  const std::uint64_t epochs0 = psim.epochs();
  const std::uint64_t skip0 = psim.skip_ahead_epochs();
  const std::uint64_t msgs0 = psim.mailbox_msgs();
  const std::uint64_t barrier0 = psim.barrier_wait_ns();
  const auto wall0 = std::chrono::steady_clock::now();
  psim.run_until(start + spec.run_ns);
  const auto wall1 = std::chrono::steady_clock::now();

  LoadResult r;
  r.spec = spec;
  r.wall_sec = std::chrono::duration<double>(wall1 - wall0).count();
  r.events = psim.events_processed() - events0;
  r.requests = requests_done() - requests0;
  sim::LatencyHistogram merged;
  for (const auto& g : gens) merged.merge(g->latencies());
  r.sim_p50_ms = static_cast<double>(merged.quantile(0.5)) / 1e6;
  r.sim_p99_ms = static_cast<double>(merged.quantile(0.99)) / 1e6;
  r.pdes_epochs = psim.epochs() - epochs0;
  r.pdes_skip_ahead_epochs = psim.skip_ahead_epochs() - skip0;
  r.pdes_mailbox_msgs = psim.mailbox_msgs() - msgs0;
  r.pdes_barrier_wait_ms =
      static_cast<double>(psim.barrier_wait_ns() - barrier0) / 1e6;
  for (auto& g : gens) g->stop();
  psim.run();
  obs::Hub hub;
  cluster->merge_observability(hub);
  r.peak_tx_backlog = hub.timeseries.peak_over("engine.tx_backlog");
  r.peak_pool_in_use = hub.timeseries.peak_over("pool.in_use");
  return r;
}

/// Run the load `repeat` times and report the median-throughput run, with
/// every run's wall clock attached. Simulated values are identical across
/// repeats (the model is deterministic); only wall clock varies.
LoadResult run_load_median(const LoadSpec& spec, int repeat) {
  std::vector<LoadResult> runs;
  runs.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) runs.push_back(run_load(spec));
  std::vector<double> walls;
  for (const auto& r : runs) walls.push_back(r.wall_sec);
  std::vector<LoadResult*> by_wall;
  for (auto& r : runs) by_wall.push_back(&r);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const LoadResult* a, const LoadResult* b) {
              return a->wall_sec < b->wall_sec;
            });
  LoadResult median = *by_wall[by_wall.size() / 2];
  median.runs_wall_sec = std::move(walls);
  return median;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string emit_json(const std::vector<LoadResult>& results) {
  double wall = 0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  for (const auto& r : results) {
    wall += r.wall_sec;
    events += r.events;
    requests += r.requests;
  }
  const auto& gate = results.back();  // heaviest load anchors the gate
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n  \"bench\": \"perf_gate\",\n  \"chain\": \"home_query\",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"clients\": " << r.spec.clients
       << ", \"threads\": " << r.spec.threads
       << ", \"nodes\": " << r.spec.nodes << ", \"cells\": " << r.spec.cells
       << ", \"wall_sec\": " << r.wall_sec
       << ", \"events\": " << r.events << ", \"requests\": " << r.requests
       << ", \"wall_events_per_sec\": " << r.events_per_sec()
       << ", \"events_per_request\": " << r.events_per_request()
       << ", \"sim_p50_ms\": " << r.sim_p50_ms
       << ", \"sim_p99_ms\": " << r.sim_p99_ms
       << ", \"peak_tx_backlog\": " << r.peak_tx_backlog
       << ", \"peak_pool_in_use\": " << r.peak_pool_in_use;
    if (r.spec.threads > 0) {
      os << ", \"pdes_epochs\": " << r.pdes_epochs
         << ", \"pdes_epochs_per_sim_sec\": " << r.epochs_per_sim_sec()
         << ", \"pdes_skip_ahead_epochs\": " << r.pdes_skip_ahead_epochs
         << ", \"pdes_mailbox_msgs\": " << r.pdes_mailbox_msgs
         << ", \"pdes_barrier_wait_ms\": " << r.pdes_barrier_wait_ms;
    }
    if (r.runs_wall_sec.size() > 1) {
      os << ", \"runs_wall_sec\": [";
      for (std::size_t j = 0; j < r.runs_wall_sec.size(); ++j) {
        os << (j > 0 ? ", " : "") << r.runs_wall_sec[j];
      }
      os << "]";
    }
    os << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  double peak_backlog = 0, peak_pool = 0;
  for (const auto& r : results) {
    peak_backlog = std::max(peak_backlog, r.peak_tx_backlog);
    peak_pool = std::max(peak_pool, r.peak_pool_in_use);
  }
  os << "  ],\n  \"gate\": {\"wall_events_per_sec\": "
     << (wall > 0 ? static_cast<double>(events) / wall : 0)
     << ", \"events_per_request\": "
     << (requests > 0 ? static_cast<double>(events) /
                            static_cast<double>(requests)
                      : 0)
     << ", \"sim_p50_ms\": " << gate.sim_p50_ms
     << ", \"sim_p99_ms\": " << gate.sim_p99_ms
     << ", \"peak_tx_backlog\": " << peak_backlog
     << ", \"peak_pool_in_use\": " << peak_pool
     << ", \"peak_rss_mib\": " << peak_rss_mib() << "}\n}\n";
  return os.str();
}

/// Pull `"key": <number>` out of `text`, searching from `from`. Returns
/// false when the key is absent.
bool find_number(const std::string& text, const std::string& key,
                 std::size_t from, double& out) {
  const auto k = text.find("\"" + key + "\"", from);
  if (k == std::string::npos) return false;
  const auto colon = text.find(':', k);
  if (colon == std::string::npos) return false;
  out = std::strtod(text.c_str() + colon + 1, nullptr);
  return true;
}

/// Compare this run against the baseline gate block in `path`. The file is
/// BENCH_PR3.json ({"before": {...}, "after": {...}}) or a raw perf_gate
/// dump; the "after" block wins when present.
int check_against(const std::string& path, const std::string& current_json) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perf_gate: FAIL — cannot open baseline " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string base = buf.str();
  std::size_t from = base.find("\"after\"");
  if (from == std::string::npos) from = 0;
  // The gate block follows the per-load results in both formats.
  const auto gate_at = base.find("\"gate\"", from);
  if (gate_at != std::string::npos) from = gate_at;

  double base_eps = 0, base_p50 = 0, base_p99 = 0, base_rss = 0;
  if (!find_number(base, "wall_events_per_sec", from, base_eps) ||
      !find_number(base, "sim_p50_ms", from, base_p50) ||
      !find_number(base, "sim_p99_ms", from, base_p99)) {
    std::cerr << "perf_gate: FAIL — baseline " << path
              << " has no gate numbers\n";
    return 1;
  }
  const bool has_base_rss = find_number(base, "peak_rss_mib", from, base_rss);
  const auto cur_gate = current_json.find("\"gate\"");
  double cur_eps = 0, cur_p50 = 0, cur_p99 = 0, cur_rss = 0;
  find_number(current_json, "wall_events_per_sec", cur_gate, cur_eps);
  find_number(current_json, "sim_p50_ms", cur_gate, cur_p50);
  find_number(current_json, "sim_p99_ms", cur_gate, cur_p99);
  find_number(current_json, "peak_rss_mib", cur_gate, cur_rss);

  int rc = 0;
  if (cur_eps < 0.9 * base_eps) {
    std::cerr << "perf_gate: FAIL — wall-clock throughput regressed >10%: "
              << cur_eps << " events/s vs baseline " << base_eps << "\n";
    rc = 1;
  }
  if (has_base_rss && base_rss > 0 && cur_rss > 1.15 * base_rss) {
    std::cerr << "perf_gate: FAIL — peak RSS regressed >15%: " << cur_rss
              << " MiB vs baseline " << base_rss << " MiB\n";
    rc = 1;
  }
  for (auto [name, cur, ref] : {std::tuple{"sim_p50_ms", cur_p50, base_p50},
                                std::tuple{"sim_p99_ms", cur_p99, base_p99}}) {
    if (ref > 0 && std::abs(cur - ref) > 0.01 * ref) {
      std::cerr << "perf_gate: FAIL — " << name << " drifted >1%: " << cur
                << " vs baseline " << ref
                << " (model behavior changed, not just speed)\n";
      rc = 1;
    }
  }
  if (rc == 0) {
    std::cerr << "perf_gate: OK — " << cur_eps << " events/s vs baseline "
              << base_eps << " (>= 90%), sim p50/p99 within 1%"
              << (has_base_rss ? ", peak RSS within 15%" : "") << "\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scale = false;
  int threads = 0;
  int repeat = 0;  // 0 = mode default (3 full sweep, 1 smoke/scale)
  int nodes = 0;
  int cells = 0;
  int clients = 0;
  long per_switch = -1;
  bool node_shards = false;
  std::string json_path;
  std::string check_path;
  const auto int_arg = [&](int& i) { return std::atoi(argv[++i]); };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = int_arg(i);
      if (threads < 1) {
        std::cerr << "perf_gate: --threads wants a positive count\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = int_arg(i);
      if (repeat < 1) {
        std::cerr << "perf_gate: --repeat wants a positive count\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = int_arg(i);
    } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
      cells = int_arg(i);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = int_arg(i);
    } else if (std::strcmp(argv[i], "--switch") == 0 && i + 1 < argc) {
      per_switch = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--node-shards") == 0) {
      node_shards = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::cerr << "usage: perf_gate [--smoke | --scale] [--threads N] "
                   "[--repeat N] [--nodes N] [--cells N] [--clients N] "
                   "[--switch N] [--node-shards] "
                   "[--json FILE] [--check FILE]\n";
      return 2;
    }
  }

  LoadSpec spec;
  spec.threads = threads;
  if (scale) {
    // The ISSUE 9 scale point: 32 workers on 4 leaves, 16 boutique cells,
    // leaf-affine placement, one shard per leaf. Sharded by construction —
    // the per-pair lookahead matrix and leaf sharding are what make this
    // tractable (--node-shards reverts to one shard per node).
    if (threads == 0) spec.threads = 1;
    spec.nodes = 32;
    spec.cells = 16;
    spec.nodes_per_switch = 8;
    spec.clients = 128;
  }
  if (nodes > 0) spec.nodes = nodes;
  if (cells > 0) spec.cells = cells;
  if (per_switch >= 0) {
    spec.nodes_per_switch = static_cast<std::size_t>(per_switch);
  }
  spec.leaf_shards = spec.nodes_per_switch > 0 && !node_shards;
  if (spec.nodes < 2 || spec.cells < 1) {
    std::cerr << "perf_gate: need >= 2 nodes and >= 1 cell\n";
    return 2;
  }

  std::vector<LoadResult> results;
  if (smoke || scale) {
    // Sub-second sanity pass (smoke) or the single scale point: the sweep
    // runs, produces traffic, and the event machinery reports sane numbers.
    spec.clients = clients > 0 ? clients : (scale ? spec.clients : 8);
    spec.warm_ns = 200'000'000;
    spec.run_ns = scale ? 1'000'000'000 : 500'000'000;
    results.push_back(run_load_median(spec, repeat > 0 ? repeat : 1));
  } else {
    spec.warm_ns = 1'000'000'000;
    spec.run_ns = 2'000'000'000;
    const std::vector<int> sweep =
        clients > 0 ? std::vector<int>{clients} : std::vector<int>{20, 60, 80};
    for (int c : sweep) {
      spec.clients = c;
      results.push_back(run_load_median(spec, repeat > 0 ? repeat : 3));
    }
  }
  for (const auto& r : results) {
    if (r.events == 0 || r.requests == 0) {
      std::cerr << "perf_gate: FAIL — no traffic at " << r.spec.clients
                << " clients (events=" << r.events
                << " requests=" << r.requests << ")\n";
      return 1;
    }
    std::cerr << "  " << r.spec.clients << " clients ("
              << r.spec.nodes << " nodes, " << r.spec.cells << " cells): "
              << static_cast<std::uint64_t>(r.events_per_sec())
              << " events/s wall, " << r.events_per_request()
              << " events/req, sim p50 " << r.sim_p50_ms << " ms, p99 "
              << r.sim_p99_ms << " ms";
    if (r.spec.threads > 0) {
      std::cerr << ", " << r.pdes_epochs << " epochs ("
                << static_cast<std::uint64_t>(r.epochs_per_sim_sec())
                << "/sim-s, " << r.pdes_skip_ahead_epochs << " skip-ahead)";
    }
    std::cerr << "\n";
  }

  const std::string json = emit_json(results);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
  } else {
    std::cout << json;
  }
  if (!check_path.empty()) return check_against(check_path, json);
  return 0;
}
