// Flight-recorder tests (ISSUE 6): bucket-ring wrap + downsample math,
// bounded memory, scheduler-driven sampling, merge semantics, and the
// end-to-end determinism contract — the boutique sweep's timeseries
// export is byte-identical across --threads 1/2/4, and a seeded chaos
// replay records the QP-rebuild dip.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

// ---------------------------------------------------------------------------
// FlightSeries: downsample bucket math
// ---------------------------------------------------------------------------

TEST(FlightSeries, ExactBucketMathThroughCompaction) {
  obs::FlightSeries s(/*capacity=*/4);
  for (int i = 1; i <= 9; ++i) {
    s.record(static_cast<sim::TimePoint>(i), static_cast<double>(i));
  }
  // 9 samples through a 4-bucket ring: two pair-merge compactions leave
  // {1..4}, {5..8}, {9} with an 4-sample-per-bucket budget.
  ASSERT_EQ(s.buckets().size(), 3u);
  EXPECT_EQ(s.samples_per_bucket(), 4u);
  EXPECT_EQ(s.total_samples(), 9u);

  const auto& b0 = s.buckets()[0];
  EXPECT_EQ(b0.t0, 1);
  EXPECT_EQ(b0.n, 4u);
  EXPECT_DOUBLE_EQ(b0.min, 1.0);
  EXPECT_DOUBLE_EQ(b0.max, 4.0);
  EXPECT_DOUBLE_EQ(b0.mean(), 2.5);

  const auto& b1 = s.buckets()[1];
  EXPECT_EQ(b1.t0, 5);
  EXPECT_EQ(b1.n, 4u);
  EXPECT_DOUBLE_EQ(b1.min, 5.0);
  EXPECT_DOUBLE_EQ(b1.max, 8.0);
  EXPECT_DOUBLE_EQ(b1.mean(), 6.5);

  const auto& b2 = s.buckets()[2];
  EXPECT_EQ(b2.t0, 9);
  EXPECT_EQ(b2.n, 1u);
  EXPECT_DOUBLE_EQ(b2.max, 9.0);

  EXPECT_THROW(obs::FlightSeries bad(1), CheckFailure);
}

TEST(FlightSeries, RingStaysBoundedAndPeaksSurvive) {
  obs::FlightSeries s(/*capacity=*/8);
  for (int i = 0; i < 10'000; ++i) {
    // A single spike in the middle of an otherwise flat series.
    s.record(i, i == 4'321 ? 1e6 : 1.0);
    ASSERT_LE(s.buckets().size(), 8u);
  }
  EXPECT_EQ(s.total_samples(), 10'000u);
  // max is closed under pair-merging, so the transient never vanishes.
  EXPECT_DOUBLE_EQ(s.peak(), 1e6);
  EXPECT_LE(s.memory_bytes(), 8 * 2 * sizeof(obs::FlightPoint));
}

TEST(FlightSeries, AbsorbMergesTimeOrderedAndEmptiesDonor) {
  obs::FlightSeries a(8), b(8);
  a.record(10, 1.0);
  a.record(30, 3.0);
  b.record(20, 2.0);
  a.absorb(b);
  ASSERT_EQ(a.buckets().size(), 3u);
  EXPECT_EQ(a.buckets()[0].t0, 10);
  EXPECT_EQ(a.buckets()[1].t0, 20);
  EXPECT_EQ(a.buckets()[2].t0, 30);
  EXPECT_EQ(a.total_samples(), 3u);
  // The donor is drained: a second absorb cannot double-count.
  EXPECT_EQ(b.total_samples(), 0u);
  a.absorb(b);
  EXPECT_EQ(a.total_samples(), 3u);
}

// ---------------------------------------------------------------------------
// FlightRecorder: probes, sampling grid, merging
// ---------------------------------------------------------------------------

TEST(FlightRecorder, SamplesProbesOnTheSchedulerGrid) {
  constexpr sim::Duration kP = obs::FlightRecorder::kSamplePeriod;
  sim::Scheduler sched;
  obs::FlightRecorder rec;
  double depth = 0.0;
  rec.probe("q", "", [&depth] { return depth; });
  rec.start(sched);
  // Background ticks never keep run() alive on their own; a foreground
  // event at 4.7 periods lets ticks 1..4 fire and strands the one at 5.
  sched.schedule_at(4 * kP + 7 * kP / 10, [&depth] { depth = 9.0; });
  sched.schedule_at(kP / 2, [&depth] { depth = 2.0; });
  sched.run();

  const obs::FlightSeries* s = rec.find("q");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets().size(), 4u);
  EXPECT_EQ(s->buckets()[0].t0, kP);
  EXPECT_EQ(s->buckets()[3].t0, 4 * kP);
  // Set at half a period, sampled at the first tick.
  EXPECT_DOUBLE_EQ(s->buckets()[0].max, 2.0);
  EXPECT_EQ(rec.samples_taken(), 4u);
  EXPECT_DOUBLE_EQ(rec.peak_over("q"), 2.0);
}

TEST(FlightRecorder, DuplicateProbeThrows) {
  obs::FlightRecorder rec;
  rec.probe("q", "node=1", [] { return 0.0; });
  EXPECT_THROW(rec.probe("q", "node=1", [] { return 0.0; }), CheckFailure);
}

TEST(FlightRecorder, MergeFromFoldsSeriesOnce) {
  obs::FlightRecorder shard1, shard2, merged;
  shard1.series("q", "node=1").record(10, 4.0);
  shard2.series("q", "node=1").record(5, 2.0);
  shard2.series("q", "node=2").record(5, 7.0);
  shard1.sample(10);
  shard2.sample(5);

  merged.merge_from(shard1);
  merged.merge_from(shard2);
  EXPECT_EQ(merged.series_count(), 2u);
  const obs::FlightSeries* q1 = merged.find("q", "node=1");
  ASSERT_NE(q1, nullptr);
  ASSERT_EQ(q1->buckets().size(), 2u);
  EXPECT_EQ(q1->buckets()[0].t0, 5);  // time-ordered across shards
  EXPECT_DOUBLE_EQ(merged.peak_over("q"), 7.0);

  // Donors were drained; merging them again is a no-op.
  merged.merge_from(shard1);
  merged.merge_from(shard2);
  EXPECT_EQ(merged.find("q", "node=1")->total_samples(), 2u);
}

TEST(RenderSparkline, NormalizesAndKeepsPeaksVisible) {
  const std::string flat = obs::render_sparkline({0.0, 0.0, 0.0}, 8);
  EXPECT_EQ(flat.size(), 8u);
  EXPECT_EQ(flat.substr(0, 3), "...");  // present-but-zero columns
  EXPECT_EQ(flat.substr(3), std::string(5, ' '));  // no data at all

  // 100 values with one spike squeezed into 10 columns: max-aggregation
  // must keep the spike at full height.
  std::vector<double> v(100, 1.0);
  v[57] = 100.0;
  const std::string line = obs::render_sparkline(v, 10);
  EXPECT_EQ(line.size(), 10u);
  EXPECT_NE(line.find('@'), std::string::npos);
  EXPECT_EQ(obs::render_sparkline({}, 0), "");
}

// ---------------------------------------------------------------------------
// End-to-end: boutique sweep determinism + chaos replay
// ---------------------------------------------------------------------------

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

struct TimelineRun {
  std::string json;
  std::string csv;
  std::size_t series = 0;
  std::size_t memory = 0;
  double peak_active_faults = 0;
  double min_active_qps = -1;
  double max_active_qps = -1;
  double peak_rebuilds = 0;
};

/// Online Boutique on a 3-shard parallel cluster with the flight recorder
/// on; returns the merged timeseries artifacts.
TimelineRun run_boutique(std::size_t os_threads, std::uint64_t chaos_seed) {
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
  cluster.start_flight_recorder();
  ing.start_flight_probes();

  sim::TimePoint stop = psim.shard(0).now() + 40'000'000;
  std::unique_ptr<fault::ChaosController> chaos;
  if (chaos_seed != 0) {
    fault::FaultPlanConfig pcfg;
    pcfg.start = psim.shard(0).now() + 2'000'000;
    pcfg.horizon = pcfg.start + 30'000'000;
    pcfg.episodes = 8;
    chaos = std::make_unique<fault::ChaosController>(
        cluster,
        fault::FaultPlan::generate(chaos_seed, {kNode1, kNode2}, pcfg));
    chaos->arm();
    stop = pcfg.horizon + 10'000'000;
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

  TimelineRun r;
  r.json = merged.timeseries.to_json();
  r.csv = merged.timeseries.to_csv();
  r.series = merged.timeseries.series_count();
  r.memory = merged.timeseries.memory_bytes();
  r.peak_active_faults = merged.timeseries.peak_over("chaos.active_faults");
  r.peak_rebuilds = merged.timeseries.peak_over("conn.rebuilds_in_flight");
  for (NodeId n : {kNode1, kNode2}) {
    const obs::FlightSeries* s = merged.timeseries.find(
        "conn.active_qps", "node=" + std::to_string(n.value()));
    if (s == nullptr) continue;
    for (const obs::FlightPoint& b : s->buckets()) {
      if (r.min_active_qps < 0 || b.min < r.min_active_qps) {
        r.min_active_qps = b.min;
      }
      r.max_active_qps = std::max(r.max_active_qps, b.max);
    }
  }
  return r;
}

// core.util is the busy-time delta of each sampling window over the
// window: summed over the node's host cores for set=cpu, the engine core
// alone for set=engine. A busy-poll engine core (DNE) reports the share of
// the window it spent on work, not its pinned 100% occupancy.
TEST(FlightRecorder, CoreUtilMeasuresBusyFractionPerWindow) {
  constexpr sim::Duration kPeriod = obs::FlightRecorder::kSamplePeriod;
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 4;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  runtime::Cluster cluster(psim, cfg);
  runtime::WorkerNode& node = cluster.add_worker(kNode1);
  cluster.finish_setup();
  cluster.start_flight_recorder();
  ASSERT_TRUE(node.engine_core().busy_poll());

  // Load exactly one window, starting on a sampling tick.
  const sim::TimePoint t0 = (sched.now() / kPeriod + 1) * kPeriod;
  const sim::Duration engine_busy = node.engine_core().scale(300'000);
  sched.schedule_at(t0, [&node] {
    node.cpu().core(0).submit(400'000);
    node.cpu().core(1).submit(400'000);
    node.engine_core().submit(300'000);
  });
  psim.run_until(t0 + 3 * kPeriod);

  obs::Hub merged;
  cluster.merge_observability(merged);
  const auto util_at = [&merged](const char* set, sim::TimePoint t) {
    const obs::FlightSeries* s = merged.timeseries.find(
        "core.util", std::string("node=1,set=") + set);
    EXPECT_NE(s, nullptr);
    if (s == nullptr) return -1.0;
    for (const obs::FlightPoint& b : s->buckets()) {
      if (b.t0 == t) return b.mean();
    }
    ADD_FAILURE() << "no core.util sample at t=" << t;
    return -1.0;
  };
  // 2 x 400 us on 4 host cores in a 1 ms window.
  EXPECT_DOUBLE_EQ(util_at("cpu", t0 + kPeriod), 0.2);
  EXPECT_DOUBLE_EQ(util_at("cpu", t0 + 2 * kPeriod), 0.0);
  EXPECT_DOUBLE_EQ(util_at("engine", t0 + kPeriod),
                   static_cast<double>(engine_busy) / kPeriod);
  EXPECT_DOUBLE_EQ(util_at("engine", t0 + 2 * kPeriod), 0.0);
}

TEST(TimeseriesPdes, ExportByteIdenticalAcrossThreadCounts) {
  const TimelineRun ref = run_boutique(1, /*chaos_seed=*/0);
  ASSERT_GT(ref.series, 0u);
  ASSERT_NE(ref.json.find("engine.tx_backlog"), std::string::npos);
  ASSERT_NE(ref.json.find("pool.in_use"), std::string::npos);
  // The bounded-memory guarantee: a full boutique sweep's recorder fits
  // in a few MiB.
  EXPECT_LT(ref.memory, 4u << 20);

  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    const TimelineRun got = run_boutique(threads, 0);
    EXPECT_EQ(got.json, ref.json);
    EXPECT_EQ(got.csv, ref.csv);
  }
}

TEST(TimeseriesPdes, ChaosReplayRecordsFaultStateAndQpRebuildDip) {
  const TimelineRun ref = run_boutique(1, /*chaos_seed=*/42);

  // The chaos state series saw at least one episode...
  EXPECT_DOUBLE_EQ(ref.peak_active_faults, 1.0);
  // ...and the QP pool visibly dipped below its healthy size while the
  // connection manager ran rebuilds.
  ASSERT_GE(ref.max_active_qps, 0.0);
  EXPECT_LT(ref.min_active_qps, ref.max_active_qps);
  EXPECT_GT(ref.peak_rebuilds, 0.0);

  // The replay — recorder included — is deterministic across threads.
  const TimelineRun got = run_boutique(4, 42);
  EXPECT_EQ(got.json, ref.json);
}

}  // namespace
