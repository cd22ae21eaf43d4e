// Online Boutique behind Palladium's HTTP/TCP-to-RDMA gateway: the
// paper's §4.3 scenario as an application. External HTTP clients hit the
// cluster ingress; payloads cross the fabric over two-sided RDMA; the ten
// microservices exchange buffers zero-copy.
//
//   $ ./examples/boutique_demo
//   $ ./examples/boutique_demo --trace      # also writes boutique_trace.json
//                                           # (open in https://ui.perfetto.dev)
//   $ ./examples/boutique_demo --chaos 42   # seeded fault injection: link
//                                           # outages, frame loss, QP/SRQ
//                                           # faults, node crashes
//   $ ./examples/boutique_demo --critpath   # p99 critical-path attribution
//                                           # -> boutique_critpath.json
//   $ ./examples/boutique_demo --flame      # exact busy-time flamegraph
//                                           # -> boutique_flame.folded
//   $ ./examples/boutique_demo --slo        # per-tenant SLO watchdog +
//                                           # burn-rate alerts
//   $ ./examples/boutique_demo --threads 4  # sharded parallel simulation
//                                           # (bit-identical for any count)
//   $ ./examples/boutique_demo --timeline   # flight-recorder gauge series
//                                           # -> boutique_timeseries.{json,csv}
//                                           # + ASCII dashboard
//   $ ./examples/boutique_demo --strict     # healthy-run invariants become
//                                           # hard failures (CI mode)
//   $ ./examples/boutique_demo --ledger     # per-tenant resource ledger +
//                                           # interference blame table
//                                           # -> boutique_ledger.{json,csv}
//   $ ./examples/boutique_demo --overload flash_crowd
//                                           # run an overload scenario twice
//                                           # (control loop off, then on) and
//                                           # print the before/after SLO
//                                           # tables; also: noisy_neighbor,
//                                           # diurnal, chaos_2x
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "control/scenario.hpp"
#include "fault/fault.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/critpath.hpp"
#include "obs/hub.hpp"
#include "runtime/boutique.hpp"
#include "runtime/function.hpp"
#include "runtime/metrics_export.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

using namespace pd;

int main(int argc, char** argv) {
  bool trace = false;
  bool chaos = false;
  bool slo = false;
  bool critpath = false;
  bool flame = false;
  bool timeline = false;
  bool strict = false;
  bool ledger = false;
  std::uint64_t chaos_seed = 0;
  std::size_t threads = 0;  // 0 = one shard (the serial simulation)
  std::int64_t seconds = 5;
  std::string prefix = "boutique";
  std::string overload;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overload") == 0 && i + 1 < argc) {
      overload = argv[++i];
    }
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    if (std::strcmp(argv[i], "--slo") == 0) slo = true;
    if (std::strcmp(argv[i], "--critpath") == 0) critpath = true;
    if (std::strcmp(argv[i], "--flame") == 0) flame = true;
    if (std::strcmp(argv[i], "--timeline") == 0) timeline = true;
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
    if (std::strcmp(argv[i], "--ledger") == 0) ledger = true;
    if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos = true;
      chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::strtoll(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--prefix") == 0 && i + 1 < argc) {
      prefix = argv[++i];
    }
  }
  // --overload: delegate to the deterministic scenario runner — the same
  // cluster assembly with the ISSUE 7 control loop off, then on — and show
  // the before/after per-tenant SLO tables.
  if (!overload.empty()) {
    control::OverloadOptions oopts;
    oopts.scenario = control::parse_scenario(overload);
    oopts.threads = threads;
    oopts.seconds = seconds == 5 ? 3 : seconds;
    oopts.chaos_seed = chaos ? chaos_seed : 42;
    std::printf("=== overload scenario %s: before (control OFF) ===\n",
                overload.c_str());
    oopts.control = false;
    const auto before = control::run_overload(oopts);
    std::printf("%s\n", before.table().c_str());
    std::printf("=== overload scenario %s: after (control ON) ===\n",
                overload.c_str());
    oopts.control = true;
    const auto after = control::run_overload(oopts);
    std::printf("%s", after.table().c_str());
    const bool ok = before.zero_loss && after.zero_loss;
    if (!ok) std::fprintf(stderr, "FAILURE: requests were silently lost\n");
    return ok ? 0 : 1;
  }

  const bool tracing = trace || critpath;
  const bool observing = tracing || slo || flame || timeline || ledger;
  const sim::Duration horizon = seconds * 1'000'000'000;

  // With tracing on, sample every 500th request end-to-end (a 5 s run
  // serves ~100K requests; sampling keeps the trace Perfetto-sized) and
  // dump a full metrics snapshot alongside.
  // Without --threads everything runs on one shard; --threads N shards the
  // cluster (edge + one shard per worker) across N OS threads with
  // bit-identical simulated results for every N.
  sim::ParallelSim psim(threads > 0 ? 3 : 1, static_cast<unsigned>(threads));

  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  sim::Scheduler& sched = cluster->scheduler();
  cluster->add_worker(NodeId{1});
  cluster->add_worker(NodeId{2});
  if (tracing) cluster->enable_shard_tracing(500);
  if (flame) cluster->enable_shard_profiling();

  // Hot functions (frontend/checkout/recommendation) on node 1, the other
  // seven on node 2 — the paper's placement.
  runtime::OnlineBoutique::deploy(*cluster, NodeId{1}, NodeId{2});

  // HTTP/TCP terminates at the cluster edge; only payloads enter the
  // RDMA fabric (early transport conversion, §3.6).
  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  ingress::PalladiumIngress gateway(*cluster, icfg);
  gateway.expose_chain("/home", runtime::OnlineBoutique::kHomeQuery);
  gateway.expose_chain("/cart", runtime::OnlineBoutique::kViewCart);
  gateway.expose_chain("/product", runtime::OnlineBoutique::kProductQuery);
  gateway.expose_chain("/checkout", runtime::OnlineBoutique::kCheckoutChain);
  gateway.finish_setup();
  cluster->finish_setup();
  if (ledger) {
    cluster->enable_ledger();
    gateway.attach_pool_clock();
  }
  if (timeline) {
    // 1 ms sampling over the whole topology: engines, RNICs, buffer pools,
    // DWRR state, QP health, cores, plus the gateway's edge-side gauges.
    cluster->start_flight_recorder();
    gateway.start_flight_probes();
  }

  if (slo) {
    // Healthy-run p99s sit near 1.2 ms (interactive pages) / 1.5 ms
    // (checkout); the targets leave ~2x headroom so only real trouble
    // (chaos, overload) burns budget.
    cluster->add_slo({.name = "boutique-home",
                      .tenant = runtime::OnlineBoutique::kTenant,
                      .chain = runtime::OnlineBoutique::kHomeQuery,
                      .target_ns = 2'500'000});
    cluster->add_slo({.name = "boutique-checkout",
                      .tenant = runtime::OnlineBoutique::kTenant,
                      .chain = runtime::OnlineBoutique::kCheckoutChain,
                      .target_ns = 3'500'000});
    cluster->add_slo({.name = "boutique-all",
                      .tenant = runtime::OnlineBoutique::kTenant,
                      .target_ns = 3'500'000,
                      .budget = 0.05});
  }

  // Three client populations hammering different pages.
  struct Page {
    const char* target;
    int clients;
  };
  const Page pages[] = {{"/home", 16}, {"/product", 12}, {"/checkout", 4}};

  // Seeded chaos: fault episodes spread across the middle of the run,
  // leaving a clean first half-second and enough tail to watch recovery.
  std::unique_ptr<fault::ChaosController> chaos_ctl;
  if (chaos) {
    fault::FaultPlanConfig fcfg;
    fcfg.start = sched.now() + 500'000'000;
    fcfg.horizon = horizon - 500'000'000;
    fcfg.episodes = 40;
    fcfg.min_gap = 20'000'000;
    fcfg.max_gap = 120'000'000;
    const fault::FaultPlan plan =
        fault::FaultPlan::generate(chaos_seed, {NodeId{1}, NodeId{2}}, fcfg);
    std::printf("%s", plan.describe().c_str());
    chaos_ctl = std::make_unique<fault::ChaosController>(*cluster, plan);
    chaos_ctl->arm();
  }

  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  for (const auto& page : pages) {
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = page.target;
    wcfg.body = R"({"session":"u-1234","currency":"EUR"})";
    wcfg.client_cores = 8;
    gens.push_back(std::make_unique<workload::HttpLoadGen>(sched, gateway, wcfg));
    gens.back()->add_clients(page.clients);
  }

  psim.run_until(horizon);
  for (auto& g : gens) g->stop();
  psim.run();
  if (ledger) {
    cluster->collect_pool_slot_ns();
    gateway.collect_pool_slot_ns(cluster->edge_hub().ledger);
  }
  // The per-shard hubs did the recording; fold them into one.
  obs::Hub hub;
  cluster->merge_observability(hub);

  const double secs = static_cast<double>(seconds);
  std::printf("Online Boutique over Palladium (DNE), %lld s, 32 HTTP clients",
              static_cast<long long>(seconds));
  if (threads > 0) std::printf(", %zu sim threads", threads);
  std::printf(":\n");
  for (std::size_t i = 0; i < gens.size(); ++i) {
    std::printf("  %-10s %6.0f RPS  mean %6.2f ms  p99 %6.2f ms\n",
                pages[i].target,
                static_cast<double>(gens[i]->completed()) / secs,
                gens[i]->latencies().mean_ns() / 1e6,
                sim::to_ms(gens[i]->latencies().quantile(0.99)));
  }

  std::printf("\nper-function invocations:\n");
  const char* names[] = {"frontend",  "productcatalog", "currency",
                         "cart",      "recommendation", "shipping",
                         "checkout",  "payment",        "email",
                         "ad"};
  for (std::uint32_t f = 1; f <= 10; ++f) {
    auto& inst = cluster->instance(FunctionId{f});
    std::printf("  %-16s %8llu calls on node %u\n", names[f - 1],
                static_cast<unsigned long long>(inst.invocations()),
                cluster->placement_of(FunctionId{f}).value());
  }

  for (NodeId n : {NodeId{1}, NodeId{2}}) {
    auto* dne = cluster->worker(n).palladium_engine();
    std::printf("node-%u DNE: tx=%llu rx=%llu replenished=%llu\n", n.value(),
                static_cast<unsigned long long>(dne->counters().tx_msgs),
                static_cast<unsigned long long>(dne->counters().rx_msgs),
                static_cast<unsigned long long>(dne->counters().replenished));
  }

  if (chaos) {
    std::uint64_t sent = 0, completed = 0, errors = 0;
    for (const auto& g : gens) {
      sent += g->sent();
      completed += g->completed();
      errors += g->errors();
    }
    std::uint64_t retransmits = 0, reestablishments = 0;
    for (NodeId n : {NodeId{1}, NodeId{2}}) {
      auto* dne = cluster->worker(n).palladium_engine();
      retransmits += dne->counters().retransmits;
      reestablishments += dne->connections().stats().reestablishments;
    }
    std::printf(
        "\nchaos seed %llu: %llu faults injected, %llu frames dropped\n"
        "  recovery: %llu retransmits, %llu QP pool rebuilds\n"
        "  accounting: sent=%llu completed=%llu errors=%llu -> %s\n",
        static_cast<unsigned long long>(chaos_seed),
        static_cast<unsigned long long>(chaos_ctl->injected()),
        static_cast<unsigned long long>(
            cluster->rdma_net()->fabric().frames_dropped()),
        static_cast<unsigned long long>(retransmits),
        static_cast<unsigned long long>(reestablishments),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(errors),
        sent == completed + errors ? "no request silently lost"
                                   : "LOST REQUESTS");
  }

  // Every sampled request that completed must have closed its whole span
  // tree; leftovers on a healthy run mean an instrumentation leak (on a
  // chaos run, requests genuinely in flight at the horizon are expected).
  // Under --strict these healthy-run invariants are hard failures so CI
  // can consume them.
  int exit_code = 0;
  if (tracing && !chaos && hub.tracer.open_spans() > 0) {
    std::fprintf(stderr,
                 "%s: %zu spans still open after a healthy run — "
                 "instrumentation is leaking spans\n",
                 strict ? "STRICT FAILURE" : "WARNING",
                 hub.tracer.open_spans());
    if (strict) exit_code = 1;
  }
  if (strict && !chaos) {
    std::uint64_t no_route = 0;
    for (NodeId n : {NodeId{1}, NodeId{2}}) {
      no_route += cluster->worker(n).palladium_engine()->counters().drops_no_route;
    }
    if (no_route != 0) {
      std::fprintf(stderr,
                   "STRICT FAILURE: %llu messages dropped with no route on a "
                   "healthy run\n",
                   static_cast<unsigned long long>(no_route));
      exit_code = 1;
    }
  }

  if (slo) {
    std::printf("\nSLO watchdog (%llu requests, %llu violations, "
                "%zu alerts):\n%s",
                static_cast<unsigned long long>(hub.slo.total_requests()),
                static_cast<unsigned long long>(hub.slo.total_violations()),
                hub.slo.alerts().size(), hub.slo.table().c_str());
  }

  if (critpath) {
    const auto report =
        obs::analyze(obs::to_read_spans(hub.tracer.spans()), 0.99);
    std::printf("\n%s", obs::report_table(report).c_str());
    obs::write_report_json(report, prefix + "_critpath.json");
    std::printf("attribution report -> %s_critpath.json\n", prefix.c_str());
  }

  if (flame) {
    hub.ledger.write_collapsed(prefix + "_flame.folded");
    std::printf(
        "\nexact profile: %llu busy-ns folded -> %s_flame.folded "
        "(feed to flamegraph.pl / speedscope)\n",
        static_cast<unsigned long long>(hub.ledger.profile_total_ns()),
        prefix.c_str());
  }

  if (trace) {
    hub.tracer.write_chrome_json(prefix + "_trace.json");
    std::printf(
        "\n%zu spans from sampled requests -> %s_trace.json "
        "(open in https://ui.perfetto.dev or chrome://tracing)\n",
        hub.tracer.spans().size(), prefix.c_str());
  }
  if (timeline) {
    std::printf("\n%s", hub.timeseries.dashboard().c_str());
    hub.timeseries.write_json(prefix + "_timeseries.json");
    hub.timeseries.write_csv(prefix + "_timeseries.csv");
    std::printf(
        "flight recorder: %zu series, %llu samples -> %s_timeseries.{json,csv}\n",
        hub.timeseries.series_count(),
        static_cast<unsigned long long>(hub.timeseries.samples_taken()),
        prefix.c_str());
  }
  if (ledger) {
    const obs::Ledger::Totals t = hub.ledger.totals();
    std::printf("\nresource ledger: busy=%llu ns wait=%llu ns bytes=%llu\n%s",
                static_cast<unsigned long long>(t.busy_ns),
                static_cast<unsigned long long>(t.wait_ns),
                static_cast<unsigned long long>(t.bytes),
                hub.ledger.table().c_str());
    std::FILE* jf = std::fopen((prefix + "_ledger.json").c_str(), "w");
    if (jf != nullptr) {
      const std::string j = hub.ledger.to_json();
      std::fwrite(j.data(), 1, j.size(), jf);
      std::fclose(jf);
    }
    std::FILE* cf = std::fopen((prefix + "_ledger.csv").c_str(), "w");
    if (cf != nullptr) {
      const std::string c = hub.ledger.to_csv();
      std::fwrite(c.data(), 1, c.size(), cf);
      std::fclose(cf);
    }
    std::printf("resource ledger -> %s_ledger.{json,csv}\n", prefix.c_str());
    hub.ledger.export_metrics(hub.registry);
  }
  if (observing) {
    if (flame) hub.ledger.export_profile(hub.registry);
    runtime::export_metrics(*cluster, hub.registry);
    hub.registry.write_json(prefix + "_metrics.json");
    std::printf("metrics snapshot -> %s_metrics.json\n", prefix.c_str());
  }
  return exit_code;
}
