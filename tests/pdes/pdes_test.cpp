// Determinism suite for the sharded parallel simulation (ISSUE 4).
//
// The contract under test: a Cluster built on a ParallelSim produces
// BIT-IDENTICAL simulated results — event counts, request latencies,
// merged metrics JSON, trace span exports, chaos injections — for every
// worker-thread count. Threads may only change wall-clock speed, never
// behavior. Each scenario runs at --threads 1/2/4 and byte-compares the
// artifacts, including a seeded chaos replay (the hardest case: faults
// mutate fabric/RNIC/engine state on several shards at once). The
// one-shard cases cover the default run mode every bench and example uses
// without --threads, baselines included.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "fault/fault.hpp"
#include "ingress/palladium_ingress.hpp"
#include "ingress/proxy_ingress.hpp"
#include "obs/hub.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "runtime/metrics_export.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace pd;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t injected = 0;
  sim::Duration p50 = 0;
  sim::Duration p99 = 0;
  std::string metrics_json;
  std::string trace_json;
};

/// One Online Boutique sweep on a 3-shard parallel cluster (edge + two
/// workers) driven by `os_threads` OS threads. `chaos_seed` != 0 arms a
/// fault plan over both workers.
RunResult run_boutique(std::size_t os_threads, std::uint64_t chaos_seed,
                       bool tracing) {
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
  if (tracing) cluster.enable_shard_tracing(1);

  // finish_setup ran the QP handshakes to quiescence, so "now" is already
  // tens of ms in; place the fault window (and the traffic stop) relative
  // to it. The post-setup now is itself deterministic across thread
  // counts, so the generated plan is too.
  sim::TimePoint stop = psim.shard(0).now() + 40'000'000;
  std::unique_ptr<fault::ChaosController> chaos;
  if (chaos_seed != 0) {
    fault::FaultPlanConfig fcfg;
    fcfg.start = psim.shard(0).now() + 2'000'000;
    fcfg.horizon = fcfg.start + 30'000'000;
    fcfg.episodes = 8;
    chaos = std::make_unique<fault::ChaosController>(
        cluster,
        fault::FaultPlan::generate(chaos_seed, {kNode1, kNode2}, fcfg));
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

  RunResult r;
  r.events = psim.events_processed();
  r.requests = wrk.latencies().count();
  r.injected = chaos ? chaos->injected() : 0;
  r.p50 = wrk.latencies().quantile(0.5);
  r.p99 = wrk.latencies().quantile(0.99);
  r.metrics_json = merged.registry.to_json();
  r.trace_json = merged.tracer.to_chrome_json();
  return r;
}

TEST(Pdes, BoutiqueBitIdenticalAcrossThreadCounts) {
  const RunResult ref = run_boutique(1, /*chaos_seed=*/0, /*tracing=*/true);
  ASSERT_GT(ref.events, 0u);
  ASSERT_GT(ref.requests, 0u);
  ASSERT_FALSE(ref.metrics_json.empty());
  // Tracing must actually have produced spans to make the byte-compare
  // meaningful.
  ASSERT_NE(ref.trace_json.find("\"request\""), std::string::npos);

  for (std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    const RunResult got = run_boutique(threads, 0, true);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.requests, ref.requests);
    EXPECT_EQ(got.p50, ref.p50);
    EXPECT_EQ(got.p99, ref.p99);
    EXPECT_EQ(got.metrics_json, ref.metrics_json);
    EXPECT_EQ(got.trace_json, ref.trace_json);
  }
}

TEST(Pdes, ChaosReplayBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SCOPED_TRACE("chaos_seed=" + std::to_string(seed));
    const RunResult ref = run_boutique(1, seed, /*tracing=*/false);
    ASSERT_GT(ref.events, 0u);
    ASSERT_GT(ref.requests, 0u);
    ASSERT_GT(ref.injected, 0u);

    for (std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE("os_threads=" + std::to_string(threads));
      const RunResult got = run_boutique(threads, seed, false);
      EXPECT_EQ(got.events, ref.events);
      EXPECT_EQ(got.requests, ref.requests);
      EXPECT_EQ(got.injected, ref.injected);
      EXPECT_EQ(got.p50, ref.p50);
      EXPECT_EQ(got.p99, ref.p99);
      EXPECT_EQ(got.metrics_json, ref.metrics_json);
    }
  }
}

// ISSUE 9: the per-pair lookahead contract is fail-loud. A cross-shard
// post whose arrival time undercuts the pair's matrix entry must throw,
// not silently corrupt causality — this is what makes the communication-
// graph matrix tightening safe to rely on.
TEST(Pdes, CrossShardPostBelowPairLookaheadThrows) {
  constexpr sim::Duration kD = 1'000;
  const auto make = [&] {
    auto psim = std::make_unique<sim::ParallelSim>(/*shards=*/2,
                                                   /*os_threads=*/1);
    psim->set_lookahead_matrix({{0, kD}, {kD, 0}});
    return psim;
  };

  {
    auto psim = make();
    psim->shard(0).schedule_at(100, [&psim] {
      // now=100, D[0][1]=1000: arrival at 500 violates the pair bound.
      psim->post(1, 500, [] {});
    });
    EXPECT_THROW(psim->run(), pd::CheckFailure);
  }
  {
    auto psim = make();
    bool delivered = false;
    psim->shard(0).schedule_at(100, [&] {
      psim->post(1, 100 + kD, [&delivered] { delivered = true; });
    });
    EXPECT_NO_THROW(psim->run());
    EXPECT_TRUE(delivered);
  }
}

// Epoch barrier stress: a ring of cross-shard hop chains on a bare
// 5-shard ParallelSim. Threaded, two hops on shard 2 busy-wait 400 spin
// budgets of wall time, so the other threads exhaust their spin and sleep
// on the barrier's sense word, and only the release's wake-up lets the run
// end. The busy-wait costs wall time only, so the 1-thread reference skips
// it.
struct RingRun {
  /// Per shard: (virtual time, hops left) of every event, in run order.
  std::vector<std::vector<std::pair<sim::TimePoint, int>>> log;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t mailbox_msgs = 0;
  std::uint64_t barrier_wait_ns = 0;
};

RingRun run_ring(unsigned os_threads) {
  constexpr std::size_t kShards = 5;
  constexpr sim::Duration kD = 1'000;
  constexpr int kHops = 200;
  sim::ParallelSim psim(kShards, os_threads);
  psim.set_lookahead_matrix(std::vector<std::vector<sim::Duration>>(
      kShards, std::vector<sim::Duration>(kShards, kD)));
  RingRun r;
  r.log.resize(kShards);
  std::function<void(std::size_t, int)> hop = [&](std::size_t k, int left) {
    sim::Scheduler& sched = psim.shard(k);
    const sim::TimePoint now = sched.now();
    r.log[k].emplace_back(now, left);
    if (os_threads > 1 && k == 2 && left % 100 == 50) {
      const auto until = std::chrono::steady_clock::now() +
                         400 * sim::ParallelSim::kBarrierSpin;
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    if (left == 0) return;
    // A local background echo and a foreground hop to the next shard,
    // with a per-hop jitter so arrivals interleave across the ring.
    sched.schedule_background_at(now + 300, [&r, &sched, k] {
      r.log[k].emplace_back(sched.now(), -1);
    });
    const std::size_t next = (k + 1) % kShards;
    psim.post(next, now + kD + static_cast<sim::Duration>(left % 7),
              [&hop, next, left] { hop(next, left - 1); });
  };
  for (std::size_t k = 0; k < kShards; ++k) {
    psim.shard(k).schedule_at(10 * k, [&hop, k] { hop(k, kHops); });
  }
  psim.run_until(50'000);
  psim.run();
  r.events = psim.events_processed();
  r.epochs = psim.epochs();
  r.mailbox_msgs = psim.mailbox_msgs();
  r.barrier_wait_ns = psim.barrier_wait_ns();
  return r;
}

// Epoch counts are compared between threaded runs only: the one-thread
// run_until() counts serial windows, not epochs.
TEST(PdesBarrier, ParkedThreadsKeepEventOrderBitIdentical) {
  const RingRun ref = run_ring(1);
  ASSERT_GT(ref.events, 1000u);
  ASSERT_GT(ref.mailbox_msgs, 0u);
  EXPECT_EQ(ref.barrier_wait_ns, 0u);
  std::vector<RingRun> threaded;
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    const RingRun& got = threaded.emplace_back(run_ring(threads));
    for (std::size_t k = 0; k < ref.log.size(); ++k) {
      EXPECT_EQ(got.log[k].size(), ref.log[k].size()) << "shard " << k;
      EXPECT_EQ(got.log[k], ref.log[k]) << "shard " << k;
    }
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.mailbox_msgs, ref.mailbox_msgs);
    EXPECT_GT(got.barrier_wait_ns, 0u);
  }
  EXPECT_EQ(threaded[1].epochs, threaded[0].epochs);
}

// The first drain + plan runs on the calling thread before any worker
// starts; when it already stops, run() and run_until() return at once.
TEST(PdesBarrier, FirstPlanStopReturnsWithoutAnEpoch) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    sim::ParallelSim psim(/*shards=*/5, threads);
    EXPECT_EQ(psim.run(), 0u);  // nothing scheduled

    bool background_ran = false;
    psim.shard(3).schedule_background_at(
        100, [&background_ran] { background_ran = true; });
    EXPECT_EQ(psim.run(), 0u);  // no foreground work to drive
    EXPECT_FALSE(background_ran);

    bool fired = false;
    psim.shard(1).schedule_at(5'000, [&fired] { fired = true; });
    EXPECT_EQ(psim.run_until(50), 0u);  // deadline before every event
    for (std::size_t k = 0; k < psim.shard_count(); ++k) {
      EXPECT_EQ(psim.shard(k).now(), 50u) << "shard " << k;
    }
    EXPECT_FALSE(fired);
    EXPECT_EQ(psim.barrier_wait_ns(), 0u);  // no worker ever started

    EXPECT_GE(psim.run(), 1u);
    EXPECT_TRUE(fired);
  }
}

// Same-time order is fixed when an event is posted, not when it reaches
// its destination. Shard 0 posts X to shard 1 for t = 1100 while shard 1
// schedules a local L for the same ns; with shard 2 idle, L is scheduled
// in the epoch before X would be drained, and with an unrelated event on
// shard 2 (whose 10 ns lookahead to shard 1 shrinks shard 1's first
// horizon) after. Both runs, and both drivers, must fire X and L in the
// same order.
std::vector<std::string> tie_order(unsigned os_threads, bool third_shard,
                                   bool until) {
  sim::ParallelSim psim(/*shards=*/3, os_threads);
  psim.set_lookahead_matrix(
      {{0, 1'000, 1'000}, {1'000, 0, 1'000}, {1'000, 10, 0}});
  std::vector<std::string> order;
  psim.shard(0).schedule_at(100, [&psim, &order] {
    psim.post(1, 1'100, [&order] { order.emplace_back("X"); });
  });
  psim.shard(1).schedule_at(500, [&psim, &order] {
    psim.shard(1).schedule_at(1'100, [&order] { order.emplace_back("L"); });
  });
  if (third_shard) psim.shard(2).schedule_at(0, [] {});
  if (until) {
    psim.run_until(5'000);
  } else {
    psim.run();
  }
  return order;
}

TEST(Pdes, SameTimeOrderIndependentOfEpochBoundaries) {
  const std::vector<std::string> ref = tie_order(1, false, false);
  ASSERT_EQ(ref.size(), 2u);
  for (unsigned threads : {1u, 2u}) {
    for (bool until : {false, true}) {
      for (bool third : {false, true}) {
        SCOPED_TRACE("os_threads=" + std::to_string(threads) +
                     " until=" + std::to_string(until) +
                     " third_shard=" + std::to_string(third));
        EXPECT_EQ(tie_order(threads, third, until), ref);
      }
    }
  }
}

// ISSUE 9 scale scenario: a 32-worker / 4-leaf / 16-cell boutique on the
// leaf-sharded multi-switch fabric. One shard per leaf switch, scoped
// tenants, per-pair lookahead from the communication graph.
struct ScaleResult {
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  sim::Duration p50 = 0;
  sim::Duration p99 = 0;
  std::uint64_t epochs = 0;
  std::uint64_t skip_ahead = 0;
  std::uint64_t mailbox_msgs = 0;
  std::string metrics_json;
};

ScaleResult run_scale_boutique(unsigned os_threads) {
  constexpr int kNodes = 32;
  constexpr std::size_t kCells = 16;
  constexpr std::size_t kPerSwitch = 8;
  sim::ParallelSim psim(/*shards=*/1 + kNodes / kPerSwitch, os_threads);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 8;
  cfg.pool_buffers = 1024;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.topology.nodes_per_switch = kPerSwitch;
  cfg.shard_mapping = runtime::ShardMapping::kLeafPerShard;
  runtime::Cluster cluster(psim, cfg);
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(1 + i)};
    cluster.add_worker(id);
    nodes.push_back(id);
  }
  const auto cells =
      runtime::OnlineBoutique::deploy_cells(cluster, nodes, kCells);

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  icfg.request_deadline = 0;
  ingress::PalladiumIngress ing(cluster, icfg);
  const auto route = [](std::uint32_t cell) {
    return cell == 0 ? std::string("/run") : "/run#" + std::to_string(cell);
  };
  for (const auto& cell : cells) {
    ing.expose_chain(route(cell.index), cell.home_query);
  }
  ing.finish_setup();
  cluster.finish_setup();

  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  for (const auto& cell : cells) {
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = route(cell.index);
    wcfg.body = std::string(64, 'x');
    wcfg.client_cores = 2;
    auto gen =
        std::make_unique<workload::HttpLoadGen>(psim.shard(0), ing, wcfg);
    gen->add_clients(2);
    gens.push_back(std::move(gen));
  }

  const std::uint64_t epochs0 = psim.epochs();
  psim.run_until(psim.shard(0).now() + 20'000'000);
  for (auto& g : gens) g->stop();
  psim.run();

  obs::Hub merged;
  cluster.merge_observability(merged);

  ScaleResult r;
  r.events = psim.events_processed();
  r.epochs = psim.epochs() - epochs0;
  r.skip_ahead = psim.skip_ahead_epochs();
  r.mailbox_msgs = psim.mailbox_msgs();
  sim::LatencyHistogram lat;
  for (const auto& g : gens) {
    r.requests += g->latencies().count();
    lat.merge(g->latencies());
  }
  r.p50 = lat.quantile(0.5);
  r.p99 = lat.quantile(0.99);
  r.metrics_json = merged.registry.to_json();
  return r;
}

// Model results must match across 1/2/4 threads; epoch and skip-ahead
// counts are a threaded-driver statistic, so they are compared between
// the threaded runs only.
TEST(Pdes, LeafShardedScaleBitIdenticalAcrossThreadCounts) {
  const ScaleResult ref = run_scale_boutique(1);
  ASSERT_GT(ref.events, 0u);
  ASSERT_GT(ref.requests, 0u);
  ASSERT_GT(ref.epochs, 0u);
  ASSERT_GT(ref.mailbox_msgs, 0u);

  std::vector<ScaleResult> threaded;
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("os_threads=" + std::to_string(threads));
    const ScaleResult& got =
        threaded.emplace_back(run_scale_boutique(threads));
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.requests, ref.requests);
    EXPECT_EQ(got.p50, ref.p50);
    EXPECT_EQ(got.p99, ref.p99);
    EXPECT_EQ(got.mailbox_msgs, ref.mailbox_msgs);
    EXPECT_EQ(got.metrics_json, ref.metrics_json);
  }
  EXPECT_EQ(threaded[1].epochs, threaded[0].epochs);
  EXPECT_EQ(threaded[1].skip_ahead, threaded[0].skip_ahead);
}

// Epoch-protocol pin for the leaf-sharded scale scenario, on the threaded
// driver (at one thread run_until() runs serial windows, not epochs).
// Epochs, skip-ahead epochs and mailbox messages are pure functions of the
// model and the adaptive horizon protocol, so any change to how the
// protocol groups events into epochs (or to the model) moves them. The
// values were recorded when the uniform-L protocol still ran alongside: it
// needed more than 5x the epochs for the same requests and latencies. They
// were re-recorded (3324 -> 3303 epochs, 3268 -> 3267 skip-ahead) when
// every fabric frame started taking one arrival event: each shard lost one
// event per frame it sends (an egress no-op or a same-shard relay), and
// those events' times used to bound some epochs' horizons.
TEST(Pdes, LeafShardedScaleEpochProtocolPinned) {
  const ScaleResult r = run_scale_boutique(2);
  EXPECT_EQ(r.epochs, 3303u);
  EXPECT_EQ(r.skip_ahead, 3267u);
  EXPECT_EQ(r.mailbox_msgs, 5472u);
  EXPECT_EQ(r.requests, 1792u);
  EXPECT_EQ(r.p50, 360447);
  EXPECT_EQ(r.p99, 425983);
}

// One run mode: without --threads every cluster runs on a one-shard
// ParallelSim, baselines included. Each baseline completes a 2-node
// boutique run there with every request answered (zero silent loss).
struct OneShardResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t events = 0;
  sim::Duration p50 = 0;
  sim::Duration p99 = 0;
  std::string metrics_json;
};

OneShardResult run_one_shard_boutique(runtime::SystemKind system) {
  sim::ParallelSim psim(/*shards=*/1);
  runtime::ClusterConfig cfg;
  cfg.cpu_cores_per_node = 8;
  cfg.pool_buffers = 1024;
  cfg.system = system;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(kNode1);
  cluster.add_worker(kNode2);
  runtime::OnlineBoutique::deploy(cluster, kNode1, kNode2);

  std::unique_ptr<ingress::IngressFrontend> ing;
  if (system == runtime::SystemKind::kPalladiumDne) {
    ingress::PalladiumIngress::Config icfg;
    icfg.initial_workers = 2;
    auto p = std::make_unique<ingress::PalladiumIngress>(cluster, icfg);
    p->expose_chain("/run", runtime::OnlineBoutique::kHomeQuery);
    p->finish_setup();
    ing = std::move(p);
  } else {
    auto p = std::make_unique<ingress::ProxyIngress>(
        cluster, ingress::ProxyIngress::Config{});
    p->expose_chain("/run", runtime::OnlineBoutique::kHomeQuery);
    p->finish_setup();
    ing = std::move(p);
  }
  cluster.finish_setup();

  workload::HttpLoadGen::Config wcfg;
  wcfg.target = "/run";
  wcfg.body = std::string(64, 'x');
  wcfg.client_cores = 4;
  workload::HttpLoadGen wrk(psim.shard(0), *ing, wcfg);
  wrk.add_clients(4);
  psim.run_until(psim.shard(0).now() + 30'000'000);
  wrk.stop();
  psim.run();

  obs::Hub merged;
  cluster.merge_observability(merged);
  runtime::export_metrics(cluster, merged.registry);

  OneShardResult r;
  r.sent = wrk.sent();
  r.completed = wrk.completed();
  r.errors = wrk.errors();
  r.events = psim.events_processed();
  r.p50 = wrk.latencies().quantile(0.5);
  r.p99 = wrk.latencies().quantile(0.99);
  r.metrics_json = merged.registry.to_json();
  return r;
}

TEST(OneShard, BaselinesCompleteBoutiqueWithZeroSilentLoss) {
  for (runtime::SystemKind sys :
       {runtime::SystemKind::kSpright, runtime::SystemKind::kNightcore,
        runtime::SystemKind::kFuyao}) {
    SCOPED_TRACE(runtime::to_string(sys));
    const OneShardResult r = run_one_shard_boutique(sys);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.sent, r.completed + r.errors);
  }
}

TEST(OneShard, BaselineOnMultiShardSimThrows) {
  sim::ParallelSim psim(/*shards=*/3);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kSpright;
  EXPECT_THROW(runtime::Cluster(psim, cfg), pd::CheckFailure);
}

TEST(OneShard, PalladiumRunBitIdenticalAcrossRepetitions) {
  const OneShardResult a =
      run_one_shard_boutique(runtime::SystemKind::kPalladiumDne);
  const OneShardResult b =
      run_one_shard_boutique(runtime::SystemKind::kPalladiumDne);
  ASSERT_GT(a.completed, 0u);
  EXPECT_EQ(a.sent, a.completed + a.errors);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  ASSERT_NE(a.metrics_json.find("engine.tx_msgs"), std::string::npos);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// Satellite 3: metric snapshots depend only on the instrument key set,
// never on the order instruments were registered or merged.
TEST(MetricsOrdering, ExportIndependentOfRegistrationOrder) {
  obs::Registry a;
  a.counter("zeta").inc(3);
  a.histogram("lat", "node=1").record(5);
  a.counter("alpha", "k=v").inc(1);
  a.gauge("depth").set(2.5);

  obs::Registry b;
  b.gauge("depth").set(2.5);
  b.counter("alpha", "k=v").inc(1);
  b.histogram("lat", "node=1").record(5);
  b.counter("zeta").inc(3);

  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(MetricsOrdering, MergeOrderIndependent) {
  obs::Registry s1;
  s1.counter("msgs", "node=1").inc(7);
  s1.histogram("lat").record(100);
  obs::Registry s2;
  s2.counter("msgs", "node=1").inc(5);
  s2.counter("msgs", "node=2").inc(2);
  s2.histogram("lat").record(300);
  obs::Registry s3;
  s3.gauge("occ").add(1.5);
  s3.histogram("lat").record(200);

  obs::Registry m1;
  m1.merge_from(s1);
  m1.merge_from(s2);
  m1.merge_from(s3);
  obs::Registry m2;
  m2.merge_from(s3);
  m2.merge_from(s1);
  m2.merge_from(s2);

  EXPECT_EQ(m1.to_json(), m2.to_json());
  EXPECT_EQ(m1.to_csv(), m2.to_csv());
}

}  // namespace
