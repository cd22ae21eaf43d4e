// Observability subsystem tests: metrics registry semantics, tracer
// lifecycle, Chrome-JSON round-tripping, and the end-to-end acceptance test
// that drives a request through a two-node cluster with tracing enabled and
// verifies span nesting + hop order on the exported trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "runtime/metrics_export.hpp"
#include "workload/driver.hpp"

namespace pd {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricKey, FormatsNameAndLabels) {
  EXPECT_EQ(obs::metric_key("rps", ""), "rps");
  EXPECT_EQ(obs::metric_key("rps", "node=1,tenant=2"), "rps{node=1,tenant=2}");
  EXPECT_THROW(obs::metric_key("", ""), CheckFailure);
}

TEST(Registry, CreateOnFirstUseReturnsStableInstrument) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("tx", "node=1");
  c.inc();
  reg.counter("tx", "node=1").inc(2);
  EXPECT_EQ(reg.counter_at("tx", "node=1").value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.has("tx", "node=1"));
  EXPECT_FALSE(reg.has("tx", "node=2"));
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), CheckFailure);
  EXPECT_THROW(reg.histogram("x"), CheckFailure);
  EXPECT_THROW(static_cast<void>(reg.counter_at("missing")), CheckFailure);
  EXPECT_THROW(static_cast<void>(reg.histogram_at("x")), CheckFailure);
}

TEST(Registry, SnapshotsAreDeterministicAndSorted) {
  auto fill = [](obs::Registry& reg) {
    reg.counter("z_last").inc(7);
    reg.histogram("m_hist").record(1000);
    reg.histogram("m_hist").record(3000);
    reg.gauge("a_first").set(1.5);
  };
  obs::Registry r1, r2;
  fill(r1);
  fill(r2);
  EXPECT_EQ(r1.to_json(), r2.to_json());
  EXPECT_EQ(r1.to_csv(), r2.to_csv());
  // map ordering: a_first before m_hist before z_last regardless of
  // insertion order.
  const std::string json = r1.to_json();
  EXPECT_LT(json.find("a_first"), json.find("m_hist"));
  EXPECT_LT(json.find("m_hist"), json.find("z_last"));
}

TEST(Registry, HistogramMergeAcrossEngines) {
  // Two engines record into their own per-node histograms; a report merges
  // them. The merged distribution must cover both inputs deterministically.
  obs::Registry reg;
  obs::Histogram& node1 = reg.histogram("hop.engine_tx", "node=1");
  obs::Histogram& node2 = reg.histogram("hop.engine_tx", "node=2");
  for (int i = 1; i <= 100; ++i) node1.record(i * 100);
  for (int i = 1; i <= 50; ++i) node2.record(100'000 + i * 100);

  obs::Histogram merged;
  merged.merge(node1);
  merged.merge(node2);
  EXPECT_EQ(merged.hist().count(), 150u);
  EXPECT_EQ(merged.hist().min(), 100);
  EXPECT_EQ(merged.hist().max(), 105'000);
  EXPECT_GE(merged.hist().quantile(1.0), merged.hist().max());
  // Merging in the opposite order gives the same distribution.
  obs::Histogram merged2;
  merged2.merge(node2);
  merged2.merge(node1);
  EXPECT_EQ(merged.hist().quantile(0.5), merged2.hist().quantile(0.5));
  EXPECT_EQ(merged.hist().quantile(0.99), merged2.hist().quantile(0.99));
}

TEST(TimeSeries, RatePerSecScalesByBucketWidth) {
  sim::TimeSeries ts(250'000'000);  // 0.25 s buckets
  for (int i = 0; i < 10; ++i) ts.increment(i * 1'000'000);  // bucket 0
  ts.add(300'000'000, 5.0);                                  // bucket 1
  EXPECT_DOUBLE_EQ(ts.rate_per_sec(0), 40.0);  // 10 events / 0.25 s
  EXPECT_DOUBLE_EQ(ts.rate_per_sec(1), 20.0);  // 5 / 0.25 s
  EXPECT_DOUBLE_EQ(ts.rate_per_sec(2), 0.0);   // empty bucket reads zero
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, BatonLifecycle) {
  obs::Registry reg;
  obs::Tracer tracer(&reg);
  obs::TraceContext ctx = tracer.start_trace("node0/client", 100);
  ASSERT_TRUE(ctx.sampled());
  EXPECT_EQ(ctx.root_span, ctx.cur_span);

  const std::uint32_t hop =
      tracer.begin_span(ctx.trace_id, ctx.root_span, "engine_tx", "node0/dne", 200);
  tracer.end_span(ctx.cur_span, 200);
  tracer.end_span(hop, 500);
  tracer.end_span(ctx.root_span, 900);
  EXPECT_EQ(tracer.open_spans(), 0u);

  // Closed hop durations feed the per-hop histograms.
  EXPECT_EQ(reg.histogram_at("hop.engine_tx").hist().count(), 1u);
  EXPECT_EQ(reg.histogram_at("hop.engine_tx").hist().max(), 300);
}

TEST(Tracer, EndSpanIsIdempotentAndTolerant) {
  obs::Tracer tracer;
  auto ctx = tracer.start_trace("t", 0);
  tracer.end_span(ctx.root_span, 10);
  tracer.end_span(ctx.root_span, 99);  // double close: no-op
  tracer.end_span(0, 50);              // span id 0: no-op
  tracer.end_span(12345, 50);          // unknown id: ignored
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].end_ns, 10);
}

TEST(Tracer, SamplingKeepsEveryNth) {
  obs::Tracer tracer;
  tracer.set_sample_every(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracer.start_trace("t", i).sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);

  obs::Tracer off;
  off.set_sample_every(0);
  EXPECT_FALSE(off.start_trace("t", 0).sampled());
  EXPECT_TRUE(off.spans().empty());
}

TEST(Tracer, ChromeJsonRoundTrip) {
  obs::Tracer tracer;
  auto ctx = tracer.start_trace("node1/client", 1'500);
  const auto hop =
      tracer.begin_span(ctx.trace_id, ctx.root_span, "fabric", "node1/rnic", 2'000);
  tracer.end_span(hop, 3'250);
  tracer.end_span(ctx.root_span, 5'000);

  const auto spans = obs::read_chrome_trace(tracer.to_chrome_json());
  ASSERT_EQ(spans.size(), 2u);
  const auto& root = spans[0];
  const auto& fabric = spans[1];
  EXPECT_EQ(root.name, "request");
  EXPECT_EQ(root.track, "node1/client");
  EXPECT_EQ(root.begin_ns, 1'500);
  EXPECT_EQ(root.end_ns(), 5'000);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(fabric.name, "fabric");
  EXPECT_EQ(fabric.track, "node1/rnic");
  EXPECT_EQ(fabric.begin_ns, 2'000);
  EXPECT_EQ(fabric.dur_ns, 1'250);
  EXPECT_EQ(fabric.parent_id, root.span_id);
  EXPECT_EQ(fabric.trace_id, root.trace_id);
}

// ---------------------------------------------------------------------------
// End-to-end: two-node cluster, traced request
// ---------------------------------------------------------------------------

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kEcho{1};
constexpr FunctionId kEntry{100};

/// Run a short echo workload on a two-node Palladium cluster tracing every
/// request; returns after the scheduler drains, with the cluster's
/// observability merged into `hub`.
void run_echo_cluster(obs::Hub& hub, runtime::SystemKind system,
                      sim::Duration run_ns) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = system;
  cfg.cpu_cores_per_node = 4;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->enable_shard_tracing(1);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  cluster->add_tenant(kTenant, 1);
  cluster->deploy(runtime::FunctionSpec{kEcho, "echo", kTenant}, kNode2);
  cluster->add_chain(runtime::Chain{1, "echo", kTenant, 512,
                                    {{kEcho, 2'000, 512}}});
  workload::ChainDriver driver(*cluster, kEntry, kNode1, 1);
  cluster->finish_setup();

  driver.start(1);
  psim.run_until(sched.now() + run_ns);
  driver.stop();
  psim.run();
  cluster->merge_observability(hub);
  runtime::export_metrics(*cluster, hub.registry);
}

TEST(EndToEnd, TwoNodeTraceNestsAndOrdersHops) {
  obs::Hub hub;
  run_echo_cluster(hub, runtime::SystemKind::kPalladiumDne, 2'000'000);

  const auto all = obs::read_chrome_trace(hub.tracer.to_chrome_json());
  ASSERT_FALSE(all.empty());

  // First request end-to-end.
  std::vector<obs::ReadSpan> spans;
  for (const auto& s : all) {
    if (s.trace_id == 1) spans.push_back(s);
  }
  // ingress + TX/fabric/RX out, fn, TX/fabric/RX back + root: a completed
  // single-remote-hop chain exports exactly 9 closed spans.
  ASSERT_EQ(spans.size(), 9u);

  std::map<std::uint32_t, const obs::ReadSpan*> by_id;
  const obs::ReadSpan* root = nullptr;
  for (const auto& s : spans) {
    by_id[s.span_id] = &s;
    if (s.parent_id == 0) {
      ASSERT_EQ(root, nullptr) << "more than one root span";
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "request");

  // (a) Every span nests within its parent's [ts, ts + dur].
  for (const auto& s : spans) {
    if (s.parent_id == 0) continue;
    auto it = by_id.find(s.parent_id);
    ASSERT_NE(it, by_id.end()) << "span " << s.name << " has unknown parent";
    const obs::ReadSpan& parent = *it->second;
    EXPECT_GE(s.begin_ns, parent.begin_ns) << s.name;
    EXPECT_LE(s.end_ns(), parent.end_ns()) << s.name;
  }

  // (b) Hop sequence in simulated-time order:
  //     ingress -> engine TX -> fabric -> engine RX -> function, then the
  //     response retraces TX -> fabric -> RX back to the driver.
  std::vector<obs::ReadSpan> hops;
  for (const auto& s : spans) {
    if (s.parent_id != 0) hops.push_back(s);
  }
  std::stable_sort(hops.begin(), hops.end(),
                   [](const obs::ReadSpan& a, const obs::ReadSpan& b) {
                     return a.begin_ns < b.begin_ns;
                   });
  const std::vector<std::string> expected = {
      "ingress",   "engine_tx", "fabric", "engine_rx",
      "fn:echo",   "engine_tx", "fabric", "engine_rx"};
  ASSERT_EQ(hops.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(hops[i].name, expected[i]) << "hop " << i;
  }

  // The request crossed the fabric: outbound hops run on node1 tracks,
  // the function on node2.
  EXPECT_EQ(hops[1].track, "node1/dne");
  EXPECT_EQ(hops[3].track, "node2/dne");
  EXPECT_EQ(hops[4].track, "node2/fn");

  // Per-hop latency histograms fell out of the same spans.
  EXPECT_GE(hub.registry.histogram_at("hop.fabric").hist().count(), 2u);
}

TEST(EndToEnd, IdenticalRunsExportIdenticalSnapshots) {
  obs::Hub a, b;
  run_echo_cluster(a, runtime::SystemKind::kPalladiumDne, 1'000'000);
  run_echo_cluster(b, runtime::SystemKind::kPalladiumDne, 1'000'000);
  EXPECT_EQ(a.registry.to_json(), b.registry.to_json());
  EXPECT_EQ(a.tracer.to_chrome_json(), b.tracer.to_chrome_json());
}

TEST(EndToEnd, OnPathRunRecordsSocDmaHistograms) {
  obs::Hub off, on;
  run_echo_cluster(off, runtime::SystemKind::kPalladiumDne, 1'000'000);
  run_echo_cluster(on, runtime::SystemKind::kPalladiumOnPath, 1'000'000);
  EXPECT_FALSE(off.registry.has("dne.soc_dma_ns", "dir=tx,node=1"));
  ASSERT_TRUE(on.registry.has("dne.soc_dma_ns", "dir=tx,node=1"));
  ASSERT_TRUE(on.registry.has("dne.soc_dma_ns", "dir=rx,node=2"));
  EXPECT_GT(on.registry.histogram_at("dne.soc_dma_ns", "dir=tx,node=1")
                .hist()
                .count(),
            0u);
}

TEST(EndToEnd, BoutiqueRunExportsHealthyEngineCounters) {
  obs::Hub hub;
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 8;
  auto cluster = std::make_unique<runtime::Cluster>(psim, cfg);
  cluster->add_worker(kNode1);
  cluster->add_worker(kNode2);
  runtime::OnlineBoutique::deploy(*cluster, kNode1, kNode2);
  workload::ChainDriver driver(*cluster, kEntry, kNode1,
                               runtime::OnlineBoutique::kHomeQuery);
  cluster->finish_setup();

  driver.start(4);
  psim.run_until(sched.now() + 200'000'000);  // 200 ms
  driver.stop();
  psim.run();
  cluster->merge_observability(hub);
  runtime::export_metrics(*cluster, hub.registry);

  EXPECT_GT(driver.completed(), 0u);
  for (const char* node : {"node=1", "node=2"}) {
    // A healthy run routes every message: no drops on either engine.
    EXPECT_EQ(hub.registry.counter_at("engine.drops_no_route", node).value(),
              0u)
        << node;
    EXPECT_GT(hub.registry.counter_at("engine.tx_msgs", node).value(), 0u)
        << node;
    EXPECT_GT(hub.registry.counter_at("rnic.sends", node).value(), 0u) << node;
  }
}

}  // namespace
}  // namespace pd
