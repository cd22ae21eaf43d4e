#include "control/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/check.hpp"
#include "control/autoscaler.hpp"
#include "fault/fault.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/hub.hpp"
#include "runtime/boutique.hpp"
#include "runtime/function.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace pd::control {
namespace {

using runtime::OnlineBoutique;

// The aggressor application for noisy_neighbor: a second tenant running a
// two-function batch chain, deliberately chunky payloads. Ids far from the
// boutique's range so the tables read unambiguously.
constexpr TenantId kBatchTenant{2};
constexpr FunctionId kBatcher{20};
constexpr FunctionId kCruncher{21};
constexpr std::uint32_t kBatchChain = 100;

struct Population {
  const char* target;
  const char* tenant;  ///< "shop" or "batch" (report label)
  int clients;
  sim::Duration error_backoff;
};

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(v), comma ? ", " : "");
  out += buf;
}

void append_i64(std::string& out, const char* key, std::int64_t v,
                bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\": %lld%s", key,
                static_cast<long long>(v), comma ? ", " : "");
  out += buf;
}

}  // namespace

const char* to_string(OverloadScenario s) {
  switch (s) {
    case OverloadScenario::kFlashCrowd: return "flash_crowd";
    case OverloadScenario::kNoisyNeighbor: return "noisy_neighbor";
    case OverloadScenario::kDiurnal: return "diurnal";
    case OverloadScenario::kChaos2x: return "chaos_2x";
  }
  return "?";
}

OverloadScenario parse_scenario(const std::string& name) {
  for (OverloadScenario s : all_scenarios()) {
    if (name == to_string(s)) return s;
  }
  PD_CHECK(false, "unknown overload scenario \"" << name << "\"");
}

const std::vector<OverloadScenario>& all_scenarios() {
  static const std::vector<OverloadScenario> all{
      OverloadScenario::kFlashCrowd, OverloadScenario::kNoisyNeighbor,
      OverloadScenario::kDiurnal, OverloadScenario::kChaos2x};
  return all;
}

OverloadResult run_overload(const OverloadOptions& opts) {
  PD_CHECK(opts.seconds >= 1, "overload run needs at least one second");
  const sim::Duration horizon = opts.seconds * 1'000'000'000;
  const bool noisy = opts.scenario == OverloadScenario::kNoisyNeighbor;
  const bool chaos = opts.scenario == OverloadScenario::kChaos2x;

  // One shard without --threads; edge + two workers across N threads with.
  sim::ParallelSim psim(opts.threads > 0 ? 3 : 1,
                        static_cast<unsigned>(opts.threads));

  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  // Per-tenant credit gate at the engines (tentpole part 2). Enabled in
  // both columns: it is the always-on backpressure floor; the *feedback*
  // parts (scaling, pressure) are what `control` toggles.
  cfg.engine.tenant_admission = true;
  if (noisy) {
    // Pin the engines' capacity so the batch tenant's load is genuinely
    // contended (the §4.2 experiment style) instead of vanishing into an
    // infinitely fast fabric, and keep per-tenant in-fabric credit slices
    // small so the aggressor cannot park deep queues at the engines.
    cfg.engine.extra_per_msg_ns = 1'000;
    cfg.engine.max_unacked = 128;
  }
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  sim::Scheduler& sched = cluster->scheduler();
  cluster->add_worker(NodeId{1});
  cluster->add_worker(NodeId{2});

  OnlineBoutique::deploy(*cluster, NodeId{1}, NodeId{2});
  if (noisy || chaos) {
    cluster->add_tenant(kBatchTenant, /*weight=*/1);
    cluster->deploy(runtime::FunctionSpec{kBatcher, "batcher", kBatchTenant},
                    NodeId{1});
    cluster->deploy(runtime::FunctionSpec{kCruncher, "cruncher", kBatchTenant},
                    NodeId{2});
    cluster->add_chain(runtime::Chain{kBatchChain, "Batch", kBatchTenant, 1024,
                                      {{kBatcher, 3'000, 1024},
                                       {kCruncher, 20'000, 4096},
                                       {kBatcher, 2'000, 1024}}});
  }

  // Admission policies exist in both columns; without control nothing ever
  // raises pressure, so the gate stays open (the "before" behaviour).
  AdmissionController admission;
  admission.add_policy({OnlineBoutique::kTenant, /*priority=*/1,
                        /*rate_rps=*/200'000, /*burst=*/64});
  if (noisy || chaos) {
    admission.add_policy({kBatchTenant, /*priority=*/0, /*rate_rps=*/200,
                          /*burst=*/8});
  }

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 1;
  icfg.max_workers = 8;
  icfg.autoscale = false;  // the EdgeController is the scaler here
  icfg.admission = opts.control ? &admission : nullptr;
  ingress::PalladiumIngress gateway(*cluster, icfg);
  gateway.expose_chain("/home", OnlineBoutique::kHomeQuery);
  gateway.expose_chain("/checkout", OnlineBoutique::kCheckoutChain);
  if (noisy || chaos) gateway.expose_chain("/batch", kBatchChain);
  gateway.finish_setup();
  cluster->finish_setup();

  // The resource ledger is always on for overload runs: the blame matrix
  // is part of the scenario artifact (before/after interference view), and
  // with the kBlame policy it is also the controller's targeting signal.
  // It records into the shard hubs, merged after the drain.
  cluster->enable_ledger();
  gateway.attach_pool_clock();

  cluster->add_slo({.name = "shop-home",
                    .tenant = OnlineBoutique::kTenant,
                    .chain = OnlineBoutique::kHomeQuery,
                    .target_ns = 2'500'000});
  cluster->add_slo({.name = "shop-all",
                    .tenant = OnlineBoutique::kTenant,
                    .target_ns = 3'500'000,
                    .budget = 0.05});
  if (noisy || chaos) {
    cluster->add_slo({.name = "batch",
                      .tenant = kBatchTenant,
                      .target_ns = 20'000'000,
                      .budget = 0.25});
  }

  // The feedback loop (tentpole part 1): edge controller scaling the
  // ingress pool + engaging admission pressure off the protected tenant's
  // SLO burn, and per-function instance autoscalers on pre-provisioned
  // replica cores.
  std::unique_ptr<EdgeController> edge;
  std::vector<std::unique_ptr<InstanceAutoscaler>> fn_scalers;
  if (opts.control) {
    EdgeControllerConfig ecfg;
    // Shedding the aggressor burns the aggressor's own SLO forever; only
    // the protected tenant's burn may drive pressure on/off.
    ecfg.pressure_slo = "shop-all";
    ecfg.shed_policy = opts.shed_policy;
    ecfg.protected_tenant = OnlineBoutique::kTenant;
    if (noisy) {
      // A sustained aggressor re-floods the instant pressure lifts; hold
      // the gate until the protected tenant has been quiet for 2 s instead
      // of oscillating admit/shed every few hundred ms.
      ecfg.pressure_off = 0.25;
      ecfg.pressure_off_hysteresis = 40;
    }
    edge = std::make_unique<EdgeController>(gateway, &admission, sched, ecfg);
    edge->start();
    cluster->provision_replicas(OnlineBoutique::kFrontend, 2);
    cluster->provision_replicas(OnlineBoutique::kRecommendation, 1);
    cluster->provision_replicas(OnlineBoutique::kCheckout, 1);
    fn_scalers = attach_instance_autoscalers(*cluster);
  }

  // Client populations per scenario. The boutique pages are the protected
  // tenant; /batch (noisy_neighbor, chaos_2x) is the best-effort one.
  std::vector<Population> pages;
  switch (opts.scenario) {
    case OverloadScenario::kFlashCrowd:
      pages = {{"/home", "shop", 48, 0}, {"/checkout", "shop", 4, 0}};
      break;
    case OverloadScenario::kNoisyNeighbor:
      pages = {{"/home", "shop", 12, 0},
               {"/checkout", "shop", 4, 0},
               {"/batch", "batch", 32, 1'000'000}};
      break;
    case OverloadScenario::kDiurnal:
      pages = {{"/home", "shop", 24, 0}, {"/checkout", "shop", 4, 0}};
      break;
    case OverloadScenario::kChaos2x:
      pages = {{"/home", "shop", 24, 0},
               {"/checkout", "shop", 8, 0},
               {"/batch", "batch", 16, 1'000'000}};
      break;
  }

  std::unique_ptr<fault::ChaosController> chaos_ctl;
  if (chaos) {
    fault::FaultPlanConfig fcfg;
    fcfg.start = horizon / 6;
    fcfg.horizon = horizon - horizon / 6;
    fcfg.episodes = 24;
    fcfg.min_gap = 10'000'000;
    fcfg.max_gap = 80'000'000;
    chaos_ctl = std::make_unique<fault::ChaosController>(
        *cluster,
        fault::FaultPlan::generate(opts.chaos_seed, {NodeId{1}, NodeId{2}},
                                   fcfg));
    chaos_ctl->arm();
  }

  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  for (const Population& p : pages) {
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = p.target;
    wcfg.body = R"({"session":"u-1234","currency":"EUR"})";
    wcfg.client_cores = 8;
    wcfg.error_backoff = p.error_backoff;
    gens.push_back(
        std::make_unique<workload::HttpLoadGen>(sched, gateway, wcfg));
    gens.back()->add_clients(p.clients);
  }

  // Load shaping on the edge scheduler (shard-local, so the steps land at
  // identical virtual times for every thread count).
  if (opts.scenario == OverloadScenario::kFlashCrowd) {
    workload::HttpLoadGen& home = *gens[0];
    home.set_active_clients(12);  // calm before the crowd
    sched.schedule_after(horizon / 3, [&home] { home.set_active_clients(48); });
    sched.schedule_after(2 * horizon / 3,
                         [&home] { home.set_active_clients(12); });
  } else if (opts.scenario == OverloadScenario::kDiurnal) {
    workload::HttpLoadGen& home = *gens[0];
    static constexpr int kSteps[] = {4, 8, 16, 24, 16, 8};
    home.set_active_clients(kSteps[0]);
    for (int i = 1; i < 6; ++i) {
      sched.schedule_after(i * horizon / 6, [&home, n = kSteps[i]] {
        home.set_active_clients(n);
      });
    }
  }

  psim.run_until(horizon);
  for (auto& g : gens) g->stop();
  psim.run();
  // Fold the pools' slot-ns integrals before merging: the gateway pools
  // charge the edge hub's ledger, worker pools their owning shard's.
  cluster->collect_pool_slot_ns();
  gateway.collect_pool_slot_ns(cluster->edge_hub().ledger);
  // The SLO watchdog (and everything else observable) lives on the shard
  // hubs; `hub` holds the merged end state.
  obs::Hub hub;
  cluster->merge_observability(hub);

  OverloadResult r;
  r.scenario = to_string(opts.scenario);
  r.control = opts.control;
  r.policy = opts.control ? to_string(opts.shed_policy) : "open";
  for (const auto& t : hub.slo.totals()) {
    r.slos.push_back(
        OverloadResult::SloRow{t.name, t.requests, t.violations, t.alerts});
  }
  std::sort(r.slos.begin(), r.slos.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });

  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    workload::HttpLoadGen& g = *gens[i];
    OverloadResult::GenRow row;
    row.target = pages[i].target;
    row.tenant = pages[i].tenant;
    row.sent = g.sent();
    row.completed = g.completed();
    row.errors = g.errors();
    row.p99_ns = g.completed() > 0 ? g.latencies().quantile(0.99) : 0;
    sent += row.sent;
    answered += row.completed + row.errors;
    r.gens.push_back(std::move(row));
  }
  r.zero_loss = sent == answered;

  r.shed_admission = gateway.shed_admission();
  r.deadline_expired = gateway.deadline_expired();
  r.timeouts = gateway.timeouts();
  r.bad_gateway = gateway.bad_gateway();
  r.ingress_scale_events = gateway.scale_events();
  r.final_workers = gateway.active_workers();

  for (NodeId n : {NodeId{1}, NodeId{2}}) {
    const auto& c = cluster->worker(n).palladium_engine()->counters();
    r.engine_shed_admission += c.shed_admission;
    r.engine_requests_shed += c.requests_shed;
  }

  if (edge != nullptr) r.controller_events = edge->events().size();
  for (const auto& s : fn_scalers) r.replica_events += s->events().size();
  r.pressure_engagements = admission.engagements();

  for (TenantId t : admission.policies()) {
    OverloadResult::AdmissionRow row;
    row.tenant = t == OnlineBoutique::kTenant ? "shop"
                 : t == kBatchTenant          ? "batch"
                                              : std::to_string(t.value());
    row.id = t.value();
    row.admitted = admission.admitted(t);
    row.shed = admission.shed(t);
    r.admission.push_back(std::move(row));
  }

  for (const obs::Ledger::BlameRow& b : hub.ledger.blame_rows()) {
    r.blame.push_back(OverloadResult::BlameRow{obs::to_string(b.kind),
                                               b.aggressor, b.victim, b.ns});
  }
  r.ledger_json = hub.ledger.to_json();
  return r;
}

std::string OverloadResult::json() const {
  std::string out = "{\n";
  out += "  \"scenario\": \"" + scenario + "\",\n  ";
  append_u64(out, "control", control ? 1 : 0, false);
  out += ",\n  \"policy\": \"" + policy + "\",\n  ";
  append_u64(out, "zero_loss", zero_loss ? 1 : 0, false);
  out += ",\n  \"slo\": [\n";
  for (std::size_t i = 0; i < slos.size(); ++i) {
    const SloRow& s = slos[i];
    out += "    {\"name\": \"" + s.name + "\", ";
    append_u64(out, "requests", s.requests);
    append_u64(out, "violations", s.violations);
    append_u64(out, "alerts", s.alerts, false);
    out += i + 1 < slos.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"clients\": [\n";
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const GenRow& g = gens[i];
    out += "    {\"target\": \"" + g.target + "\", \"tenant\": \"" + g.tenant +
           "\", ";
    append_u64(out, "sent", g.sent);
    append_u64(out, "completed", g.completed);
    append_u64(out, "errors", g.errors);
    append_u64(out, "p99_ns", static_cast<std::uint64_t>(g.p99_ns), false);
    out += i + 1 < gens.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"ingress\": {";
  append_u64(out, "shed_admission", shed_admission);
  append_u64(out, "deadline_expired", deadline_expired);
  append_u64(out, "timeouts", timeouts);
  append_u64(out, "bad_gateway", bad_gateway);
  append_u64(out, "scale_events", ingress_scale_events);
  append_u64(out, "final_workers", static_cast<std::uint64_t>(final_workers),
             false);
  out += "},\n  \"engine\": {";
  append_u64(out, "shed_admission", engine_shed_admission);
  append_u64(out, "requests_shed", engine_requests_shed, false);
  out += "},\n  \"controller\": {";
  append_u64(out, "events", controller_events);
  append_u64(out, "replica_events", replica_events);
  append_u64(out, "pressure_engagements", pressure_engagements, false);
  out += "},\n  \"admission\": [\n";
  for (std::size_t i = 0; i < admission.size(); ++i) {
    const AdmissionRow& a = admission[i];
    out += "    {\"tenant\": \"" + a.tenant + "\", ";
    append_u64(out, "id", a.id);
    append_u64(out, "admitted", a.admitted);
    append_u64(out, "shed", a.shed, false);
    out += i + 1 < admission.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"blame\": [\n";
  for (std::size_t i = 0; i < blame.size(); ++i) {
    const BlameRow& b = blame[i];
    out += "    {\"kind\": \"" + b.kind + "\", ";
    append_i64(out, "aggressor", b.aggressor);
    append_i64(out, "victim", b.victim);
    append_u64(out, "ns", b.ns, false);
    out += i + 1 < blame.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string OverloadResult::table() const {
  char buf[192];
  std::string out;
  std::snprintf(buf, sizeof buf, "%s, control %s (policy %s):\n",
                scenario.c_str(), control ? "ON" : "OFF", policy.c_str());
  out += buf;
  std::snprintf(buf, sizeof buf, "  %-12s %10s %10s %10s\n", "slo", "requests",
                "violations", "alerts");
  out += buf;
  for (const SloRow& s : slos) {
    std::snprintf(buf, sizeof buf, "  %-12s %10llu %10llu %10llu\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.requests),
                  static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(s.alerts));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "  %-12s %6s %10s %10s %10s %10s\n", "page",
                "tenant", "sent", "completed", "errors", "p99 ms");
  out += buf;
  for (const GenRow& g : gens) {
    std::snprintf(buf, sizeof buf,
                  "  %-12s %6s %10llu %10llu %10llu %10.2f\n",
                  g.target.c_str(), g.tenant.c_str(),
                  static_cast<unsigned long long>(g.sent),
                  static_cast<unsigned long long>(g.completed),
                  static_cast<unsigned long long>(g.errors),
                  static_cast<double>(g.p99_ns) / 1e6);
    out += buf;
  }
  std::snprintf(
      buf, sizeof buf,
      "  ingress: 429 shed=%llu 504 deadline=%llu 502=%llu workers=%d "
      "scale-events=%llu\n",
      static_cast<unsigned long long>(shed_admission),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(bad_gateway), final_workers,
      static_cast<unsigned long long>(ingress_scale_events));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  engine shed=%llu  controller events=%llu replicas=%llu pressure=%llu"
      "  zero-loss=%s\n",
      static_cast<unsigned long long>(engine_shed_admission),
      static_cast<unsigned long long>(controller_events),
      static_cast<unsigned long long>(replica_events),
      static_cast<unsigned long long>(pressure_engagements),
      zero_loss ? "yes" : "NO");
  out += buf;
  for (const AdmissionRow& a : admission) {
    std::snprintf(buf, sizeof buf,
                  "  admission %-6s (tenant %llu): admitted=%llu shed=%llu\n",
                  a.tenant.c_str(), static_cast<unsigned long long>(a.id),
                  static_cast<unsigned long long>(a.admitted),
                  static_cast<unsigned long long>(a.shed));
    out += buf;
  }
  bool header = false;
  for (const BlameRow& b : blame) {
    if (b.aggressor == b.victim || b.aggressor < 0 || b.victim < 0) continue;
    if (!header) {
      out += "  interference (queueing imposed, aggressor -> victim):\n";
      header = true;
    }
    std::snprintf(buf, sizeof buf,
                  "    tenant %lld -> tenant %lld  %-6s %12.1f us\n",
                  static_cast<long long>(b.aggressor),
                  static_cast<long long>(b.victim), b.kind.c_str(),
                  static_cast<double>(b.ns) / 1e3);
    out += buf;
  }
  if (!header) out += "  interference: none recorded\n";
  return out;
}

}  // namespace pd::control
