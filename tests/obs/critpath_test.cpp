// Critical-path attribution, exact profiler, and SLO watchdog (ISSUE 5).
//
// Unit half: hand-built span trees with known critical paths — overlapping
// children (latest-begin wins), clamping to the root interval, uncovered
// "queue" gaps, retransmit overlays, exact order-statistic quantile
// selection, and cross-shard foreign-end resolution feeding the analyzer.
//
// Integration half: Online Boutique sweeps on a 3-shard parallel cluster.
// The critpath report must be byte-identical across --threads 1/2/4, a
// healthy run must end with zero open spans, the quantile breakdown must
// sum to the end-to-end quantile latency exactly, a seeded chaos replay
// (with engine stalls in the plan) must surface "retransmit" hops and trip
// the SLO burn-rate alert identically on every replay, and the exact
// busy-time profile must account for 100% of every core's busy time.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/critpath.hpp"
#include "obs/hub.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

obs::ReadSpan make_span(std::uint64_t trace, std::uint32_t id,
                        std::uint32_t parent, const char* name,
                        std::int64_t begin, std::int64_t end) {
  obs::ReadSpan s;
  s.name = name;
  s.track = "test";
  s.trace_id = trace;
  s.span_id = id;
  s.parent_id = parent;
  s.begin_ns = begin;
  s.dur_ns = end - begin;
  return s;
}

std::int64_t segment_sum(const std::vector<obs::PathSegment>& segs) {
  std::int64_t sum = 0;
  for (const auto& s : segs) sum += s.ns;
  return sum;
}

// ---------------------------------------------------------------------------
// Hand-built span trees.
// ---------------------------------------------------------------------------

TEST(CritPath, OverlappingChildrenQueueGapsAndRetransmit) {
  // Root [0,1000]. The soc_dma copy overlaps the engine_tx tail and wins
  // its overlap (later begin); the retransmit overlay splits the fabric
  // hop; [700,800) is covered by nothing and must surface as "queue".
  std::vector<obs::ReadSpan> trace;
  trace.push_back(make_span(7, 1, 0, "request", 0, 1000));
  trace.push_back(make_span(7, 2, 1, "ingress", 0, 100));
  trace.push_back(make_span(7, 3, 1, "engine_tx", 100, 400));
  trace.push_back(make_span(7, 4, 1, "soc_dma", 300, 450));
  trace.push_back(make_span(7, 5, 1, "fabric", 450, 700));
  trace.push_back(make_span(7, 6, 1, "fn:echo", 800, 1000));
  trace.push_back(make_span(7, 7, 1, "retransmit", 500, 600));

  const auto path = obs::critical_path(trace);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->trace_id, 7u);
  EXPECT_EQ(path->total_ns, 1000);
  EXPECT_EQ(path->retransmit_spans, 1u);

  const struct {
    const char* hop;
    obs::HopClass cls;
    std::int64_t ns;
  } want[] = {
      {"ingress", obs::HopClass::kService, 100},
      {"engine_tx", obs::HopClass::kService, 200},
      {"soc_dma", obs::HopClass::kDma, 150},
      {"fabric", obs::HopClass::kTransport, 50},
      {"retransmit", obs::HopClass::kTransport, 100},
      {"fabric", obs::HopClass::kTransport, 100},
      {"queue", obs::HopClass::kQueue, 100},
      {"fn:echo", obs::HopClass::kService, 200},
  };
  ASSERT_EQ(path->segments.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    EXPECT_EQ(path->segments[i].hop, want[i].hop);
    EXPECT_EQ(path->segments[i].cls, want[i].cls);
    EXPECT_EQ(path->segments[i].ns, want[i].ns);
  }
  // Every nanosecond of end-to-end latency lands on exactly one segment.
  EXPECT_EQ(segment_sum(path->segments), path->total_ns);
}

TEST(CritPath, ChildrenClampToRootInterval) {
  // Children that start before / end after the root (possible when a hop
  // span is closed by an ACK that arrives after the response is consumed)
  // are clamped: attribution never exceeds the request's own interval.
  std::vector<obs::ReadSpan> trace;
  trace.push_back(make_span(3, 1, 0, "request", 100, 1100));
  trace.push_back(make_span(3, 2, 1, "fabric", 50, 300));
  trace.push_back(make_span(3, 3, 1, "engine_rx", 300, 1200));

  const auto path = obs::critical_path(trace);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->total_ns, 1000);
  ASSERT_EQ(path->segments.size(), 2u);
  EXPECT_EQ(path->segments[0].hop, "fabric");
  EXPECT_EQ(path->segments[0].ns, 200);
  EXPECT_EQ(path->segments[1].hop, "engine_rx");
  EXPECT_EQ(path->segments[1].ns, 800);
  EXPECT_EQ(segment_sum(path->segments), path->total_ns);
}

TEST(CritPath, EqualBeginTieBreaksOnLargerSpanId) {
  std::vector<obs::ReadSpan> trace;
  trace.push_back(make_span(9, 1, 0, "request", 0, 100));
  trace.push_back(make_span(9, 2, 1, "engine_tx", 0, 100));
  trace.push_back(make_span(9, 3, 1, "soc_dma", 0, 100));

  const auto path = obs::critical_path(trace);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->segments.size(), 1u);
  EXPECT_EQ(path->segments[0].hop, "soc_dma");
  EXPECT_EQ(path->segments[0].cls, obs::HopClass::kDma);
  EXPECT_EQ(path->segments[0].ns, 100);
}

TEST(CritPath, AnalyzePicksExactOrderStatisticAndCountsIncomplete) {
  // Five complete requests with totals 100..500 plus one rootless orphan.
  std::vector<obs::ReadSpan> spans;
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto total = static_cast<std::int64_t>(t) * 100;
    const auto base = static_cast<std::uint32_t>(t) * 10;
    spans.push_back(make_span(t, base + 1, 0, "request", 0, total));
    spans.push_back(make_span(t, base + 2, base + 1, "fn:a", 0, total));
  }
  spans.push_back(make_span(6, 99, 98, "fn:orphan", 0, 50));

  const auto report = obs::analyze(spans, 0.99);
  EXPECT_EQ(report.traces, 5u);
  EXPECT_EQ(report.incomplete, 1u);
  // rank ceil(0.99 * 5) = 5 -> the 500 ns request; p50 rank 3 -> 300 ns.
  EXPECT_EQ(report.q_trace_id, 5u);
  EXPECT_EQ(report.q_total_ns, 500);
  EXPECT_EQ(report.p50_total_ns, 300);
  ASSERT_EQ(report.q_breakdown.size(), 1u);
  EXPECT_EQ(report.q_breakdown[0].hop, "fn:a");
  EXPECT_EQ(report.q_breakdown[0].ns, 500);
  ASSERT_TRUE(report.hops.count("fn:a"));
  EXPECT_EQ(report.hops.at("fn:a").traces, 5u);
  EXPECT_EQ(report.hops.at("fn:a").total_ns, 1500);
  EXPECT_EQ(report.class_ns[static_cast<int>(obs::HopClass::kService)], 1500);
}

TEST(CritPath, CrossShardForeignEndResolvesIntoAttribution) {
  // A hop begun on shard 0 and ended on shard 1: the end lands in shard
  // 1's tracer as a foreign end, and only absorb + resolve_foreign_ends
  // closes the span. The analyzer must then see the full hop.
  obs::Tracer shard0;
  obs::Tracer shard1;
  shard0.set_shard(0);
  shard1.set_shard(1);

  const obs::TraceContext ctx = shard0.start_trace("edge", 0);
  ASSERT_TRUE(ctx.sampled());
  const std::uint32_t hop =
      shard0.begin_span(ctx.trace_id, ctx.root_span, "engine_tx", "n1", 10);
  shard1.end_span(hop, 500);  // foreign: shard1 never opened this id
  shard0.end_span(ctx.root_span, 600);

  // Before the merge the hop is still open and the analyzer must treat
  // the trace as having a 590 ns attribution hole... but after absorb +
  // resolve it is a closed 490 ns engine_tx hop.
  shard0.absorb(shard1);
  shard0.resolve_foreign_ends();
  EXPECT_EQ(shard0.open_spans(), 0u);

  const auto report = obs::analyze(obs::to_read_spans(shard0.spans()), 0.99);
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.q_total_ns, 600);
  ASSERT_TRUE(report.hops.count("engine_tx"));
  EXPECT_EQ(report.hops.at("engine_tx").total_ns, 490);
  ASSERT_TRUE(report.hops.count("queue"));
  EXPECT_EQ(report.hops.at("queue").total_ns, 110);
}

// ---------------------------------------------------------------------------
// Online Boutique integration on the 3-shard parallel cluster.
// ---------------------------------------------------------------------------

struct ObsRun {
  std::uint64_t requests = 0;
  std::size_t open_spans = 0;
  obs::CritPathReport report;
  std::string critpath_json;
  std::string slo_table;
  std::uint64_t alerts = 0;
  std::uint64_t violations = 0;
  bool plan_has_stall = false;
};

/// One boutique sweep with full-rate tracing and a home-query latency SLO.
/// `chaos_seed` != 0 arms a fault plan whose episodes (engine stalls, link
/// outages, crashes) push requests caught in them past the 2.5 ms SLO
/// target.
ObsRun run_boutique(std::size_t os_threads, std::uint64_t chaos_seed) {
  sim::ParallelSim psim(/*shards=*/3, os_threads);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 8;
  cfg.pool_buffers = 1024;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(kNode1);
  cluster.add_worker(kNode2);
  runtime::OnlineBoutique::deploy(cluster, kNode1, kNode2);

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  icfg.request_deadline = 0;
  ingress::PalladiumIngress ing(cluster, icfg);
  ing.expose_chain("/run", runtime::OnlineBoutique::kHomeQuery);
  ing.finish_setup();
  cluster.finish_setup();
  cluster.enable_shard_tracing(1);

  obs::SloSpec spec;
  spec.name = "home";
  spec.tenant = runtime::OnlineBoutique::kTenant;
  spec.chain = runtime::OnlineBoutique::kHomeQuery;
  spec.target_ns = 2'500'000;
  cluster.add_slo(spec);

  ObsRun r;
  sim::TimePoint stop = psim.shard(0).now() + 40'000'000;
  std::unique_ptr<fault::ChaosController> chaos;
  if (chaos_seed != 0) {
    fault::FaultPlanConfig fcfg;
    fcfg.start = psim.shard(0).now() + 2'000'000;
    fcfg.horizon = fcfg.start + 30'000'000;
    fcfg.episodes = 8;
    fault::FaultPlan plan =
        fault::FaultPlan::generate(chaos_seed, {kNode1, kNode2}, fcfg);
    for (const fault::FaultEvent& e : plan.events) {
      if (e.kind == fault::FaultKind::kEngineStall) r.plan_has_stall = true;
    }
    chaos = std::make_unique<fault::ChaosController>(cluster, std::move(plan));
    chaos->arm();
    stop = fcfg.horizon + 10'000'000;
  }

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/run";
  wcfg.body = std::string(64, 'x');
  wcfg.client_cores = 4;
  workload::HttpLoadGen wrk(psim.shard(0), ing, wcfg);
  wrk.add_clients(4);

  psim.run_until(stop);
  wrk.stop();
  psim.run();

  obs::Hub merged;
  cluster.merge_observability(merged);

  r.requests = wrk.latencies().count();
  r.open_spans = merged.tracer.open_spans();
  r.report = obs::analyze(obs::to_read_spans(merged.tracer.spans()), 0.99);
  r.critpath_json = obs::report_json(r.report);
  r.slo_table = merged.slo.table();
  r.alerts = merged.slo.alerts().size();
  r.violations = merged.slo.total_violations();
  return r;
}

TEST(CritPathBoutique, HealthyRunExactAndByteIdenticalAcrossThreads) {
  const ObsRun ref = run_boutique(1, /*chaos_seed=*/0);
  ASSERT_GT(ref.requests, 0u);
  ASSERT_GT(ref.report.traces, 0u);

  // Satellite: a healthy (no-chaos) run must end with every span closed —
  // an open span after the drain means the instrumentation leaks.
  EXPECT_EQ(ref.open_spans, 0u);
  EXPECT_EQ(ref.report.incomplete, 0u);

  // Acceptance: the p99 hop segments sum to the end-to-end p99 exactly
  // (the quantile is a real request, not an interpolation).
  EXPECT_EQ(segment_sum(ref.report.q_breakdown), ref.report.q_total_ns);
  EXPECT_GT(ref.report.q_total_ns, 0);

  // Healthy boutique p99 sits near 1.2 ms — far under the 2.5 ms target,
  // so the watchdog must stay quiet.
  EXPECT_EQ(ref.violations, 0u);
  EXPECT_EQ(ref.alerts, 0u);

  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    const ObsRun got = run_boutique(threads, 0);
    EXPECT_EQ(got.critpath_json, ref.critpath_json);
    EXPECT_EQ(got.slo_table, ref.slo_table);
    EXPECT_EQ(got.open_spans, 0u);
  }
}

TEST(CritPathBoutique, ChaosSeedSurfacesRetransmitHopsAndTripsSlo) {
  // Seed 42's plan includes engine stalls (asserted below so a future
  // change to plan generation fails loudly instead of silently testing
  // nothing) plus link faults that force loss recovery.
  const ObsRun ref = run_boutique(1, /*chaos_seed=*/42);
  ASSERT_GT(ref.requests, 0u);
  ASSERT_TRUE(ref.plan_has_stall);

  // Loss recovery shows up as "retransmit" hops classified as transport.
  EXPECT_GT(ref.report.retransmit_spans, 0u);
  ASSERT_TRUE(ref.report.hops.count("retransmit"));
  EXPECT_EQ(ref.report.hops.at("retransmit").cls, obs::HopClass::kTransport);
  EXPECT_GT(
      ref.report.class_ns[static_cast<int>(obs::HopClass::kTransport)], 0);

  // The fault episodes push requests past the 2.5 ms target: the burn-rate
  // alert must fire.
  EXPECT_GT(ref.violations, 0u);
  ASSERT_GT(ref.alerts, 0u);

  // Acceptance: the chaos replay is deterministic — three replays (run at
  // different worker-thread counts, the hardest case) produce the same
  // alert log and the same critpath report, byte for byte.
  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("replay os_threads=" + std::to_string(threads));
    const ObsRun got = run_boutique(threads, 42);
    EXPECT_EQ(got.alerts, ref.alerts);
    EXPECT_EQ(got.slo_table, ref.slo_table);
    EXPECT_EQ(got.critpath_json, ref.critpath_json);
  }
}

// ---------------------------------------------------------------------------
// Exact profile: 100% busy-time accounting on a one-shard boutique run.
// ---------------------------------------------------------------------------

// Busy ns per resource from the ledger's CSV "cell" rows of one kind
// (record,kind,resource,tenant,aggressor,victim,busy_ns,wait_ns,bytes).
std::map<std::string, std::uint64_t> ledger_busy_by_resource(
    const std::string& csv, const std::string& kind) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string v; std::getline(fields, v, ',');) f.push_back(v);
    if (f.size() < 7 || f[0] != "cell" || f[1] != kind) continue;
    out[f[2]] += std::stoull(f[6]);
  }
  return out;
}

TEST(ProfilerBoutique, AccountsEveryCoreBusyNanosecond) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 8;
  cfg.pool_buffers = 1024;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  runtime::Cluster cluster(psim, cfg);
  // Profiling must be on before finish_setup so setup-era work (the QP
  // handshakes it drains) is attributed too.
  cluster.enable_shard_profiling();
  cluster.add_worker(kNode1);
  cluster.add_worker(kNode2);
  runtime::OnlineBoutique::deploy(cluster, kNode1, kNode2);

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  icfg.request_deadline = 0;
  ingress::PalladiumIngress ing(cluster, icfg);
  ing.expose_chain("/run", runtime::OnlineBoutique::kHomeQuery);
  ing.finish_setup();
  cluster.finish_setup();
  // The ledger switched on after setup still reports the busy cells the
  // profile folded from the start: one instrument, one set of cells.
  cluster.enable_ledger();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/run";
  wcfg.body = std::string(64, 'x');
  wcfg.client_cores = 4;
  workload::HttpLoadGen wrk(sched, ing, wcfg);
  wrk.add_clients(4);

  psim.run_until(sched.now() + 20'000'000);
  wrk.stop();
  psim.run();  // drain: busy_ns() is credited at completion
  obs::Hub hub;
  cluster.merge_observability(hub);
  const obs::Ledger& prof = hub.ledger;

  ASSERT_GT(wrk.latencies().count(), 0u);
  ASSERT_GT(prof.profile_total_ns(), 0u);

  // Acceptance: the folded profile accounts for 100% of every worker
  // CoreSet's busy time and of each engine core, exactly.
  for (NodeId id : {kNode1, kNode2}) {
    SCOPED_TRACE("node " + std::to_string(id.value()));
    runtime::WorkerNode& node = cluster.worker(id);
    const std::string cpu_prefix =
        "node" + std::to_string(id.value()) + "/cpu/";
    EXPECT_EQ(prof.profile_prefix_ns(cpu_prefix),
              static_cast<std::uint64_t>(node.cpu().total_busy_ns()));
    EXPECT_EQ(prof.profile_ns(node.engine_core().name()),
              static_cast<std::uint64_t>(node.engine_core().busy_ns()));
  }

  // The ledger report's per-resource core busy equals the profile's, and
  // both equal each core's busy_ns(), exactly.
  const auto ledger_core = ledger_busy_by_resource(prof.to_csv(), "core");
  ASSERT_FALSE(ledger_core.empty());
  for (const auto& [resource, ns] : ledger_core) {
    SCOPED_TRACE(resource);
    EXPECT_EQ(ns, prof.profile_ns(resource));
  }
  for (NodeId id : {kNode1, kNode2}) {
    runtime::WorkerNode& node = cluster.worker(id);
    std::vector<const sim::Core*> cores{&node.engine_core()};
    for (std::size_t i = 0; i < node.cpu().size(); ++i) {
      cores.push_back(&node.cpu().core(i));
    }
    for (const sim::Core* core : cores) {
      SCOPED_TRACE(core->name());
      const auto it = ledger_core.find(core->name());
      const std::uint64_t ledger_ns = it == ledger_core.end() ? 0 : it->second;
      EXPECT_EQ(ledger_ns, static_cast<std::uint64_t>(core->busy_ns()));
      EXPECT_EQ(prof.profile_ns(core->name()),
                static_cast<std::uint64_t>(core->busy_ns()));
    }
  }
}

}  // namespace
