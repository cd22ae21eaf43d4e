// Unit tests of the benchmark's own parts: the open-loop generator, the
// request log's timing, the quantile / ratio / normalisation math and the
// seed plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "requests.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kSec = 1'000'000'000;

std::uint64_t arrivals_in(OpenLoopPoisson& gen, std::int64_t until) {
  std::uint64_t n = 0;
  while (gen.next_send() < until) ++n;
  return n;
}

TEST(OpenLoop, SteadyMeanRateMatchesShape) {
  OpenLoopPoisson gen({.rate_rps = 50'000}, /*seed=*/7, /*start_ns=*/0);
  const double got = static_cast<double>(arrivals_in(gen, 2 * kSec)) / 2.0;
  EXPECT_NEAR(got, 50'000, 50'000 * 0.01);
}

TEST(OpenLoop, SurgeMeanRateMatchesShape) {
  const OpenLoopPoisson::Shape shape{.rate_rps = 6'000,
                                     .surge_factor = 4.0,
                                     .surge_period_ns = 1'000'000,
                                     .surge_on_ns = 200'000};
  OpenLoopPoisson gen(shape, 11, 0);
  // 4x the base rate for a fifth of the time: 1.6x the base on average,
  // even though each surge (0.2 ms) lasts about one base-rate gap (0.17 ms).
  const double mean = 6'000 * (1 + 3 * 0.2);
  const double got = static_cast<double>(arrivals_in(gen, 4 * kSec)) / 4.0;
  EXPECT_NEAR(got, mean, mean * 0.02);
}

TEST(OpenLoop, SurgeWindowFollowsPhase) {
  OpenLoopPoisson gen({.rate_rps = 10,
                       .surge_factor = 3.0,
                       .surge_period_ns = 100,
                       .surge_on_ns = 20,
                       .surge_phase_ns = 50},
                      1, 0);
  EXPECT_DOUBLE_EQ(gen.rate_at(50), 30);   // phase 0: surging
  EXPECT_DOUBLE_EQ(gen.rate_at(69), 30);   // phase 19
  EXPECT_DOUBLE_EQ(gen.rate_at(70), 10);   // phase 20: back to base
  EXPECT_DOUBLE_EQ(gen.rate_at(-50), 30);  // negative times wrap too
}

TEST(OpenLoop, SameSeedSameStreamOtherSeedOtherStream) {
  OpenLoopPoisson a({.rate_rps = 1000}, 5, 100), b({.rate_rps = 1000}, 5, 100),
      c({.rate_rps = 1000}, 6, 100);
  EXPECT_EQ(a.next_send(), 100);  // the first request is due at the start
  b.next_send();
  c.next_send();
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t x = a.next_send();
    EXPECT_EQ(x, b.next_send());
    differs = differs || x != c.next_send();
  }
  EXPECT_TRUE(differs);
}

TEST(RequestLog, LatencyCountsFromScheduledSend) {
  RequestLog log;
  // Due at 1000; the injector ran late and the reply came at 1500. The
  // latency is 500, not the 200 a timer started at injection would see.
  const std::size_t i = log.open(1000, 0);
  log.close(i, 1500, true);
  const ClassSummary s =
      summarize(log.entries(), 0, 2000, 10'000, [](std::uint32_t) { return true; });
  EXPECT_EQ(s.p50_ns, 500);
  EXPECT_EQ(log.open_count(), 0u);
}

TEST(RequestLog, SummaryWindowClassesFailuresAndSlo) {
  RequestLog log;
  log.close(log.open(5, 0), 50, true);     // due before the window: skipped
  log.close(log.open(10, 0), 110, true);   // 100 ns, within SLO
  log.close(log.open(20, 0), 320, true);   // 300 ns, misses the 200 ns SLO
  log.close(log.open(30, 0), 40, false);   // failed: attempted, not ok
  log.close(log.open(40, 1), 45, true);    // other class
  log.open(50, 0);                         // still open: attempted, not ok
  const ClassSummary s = summarize(log.entries(), 10, 100, 200,
                                   [](std::uint32_t c) { return c == 0; });
  EXPECT_EQ(s.attempted, 4u);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.slo_ok, 1u);
  EXPECT_EQ(s.p50_ns, 100);
  EXPECT_EQ(s.p99_ns, 300);
  EXPECT_EQ(log.open_count(), 1u);
  // Finished at 40, 45, 50 and 110; the one done at 320 is outside.
  EXPECT_EQ(finished_in(log.entries(), 40, 111), 4u);
}

TEST(Stats, NearestRankQuantile) {
  std::vector<int> v{5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.0), 1);
  EXPECT_EQ(quantile(v, 0.5), 3);
  EXPECT_EQ(quantile(v, 0.99), 5);
  EXPECT_EQ(quantile(v, 1.0), 5);
  EXPECT_EQ(quantile(v, 2.0), 5);  // clamped
  std::vector<int> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(quantile(hundred, 0.99), 99);
  EXPECT_EQ(quantile(hundred, 0.50), 50);
  std::vector<int> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0);
}

TEST(Stats, RatioPerReqAndMedian) {
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0);
  // A window counter: 1200 at the end, 200 at the start, over 500 requests.
  EXPECT_DOUBLE_EQ(per_req(1200, 200, 500), 2.0);
  EXPECT_DOUBLE_EQ(per_req(10, 10, 0), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, SumOfMinimaTakesEachSliceAtItsFastest) {
  // A stall in slice 1 of the first run and slice 0 of the second costs nothing.
  EXPECT_DOUBLE_EQ(sum_of_minima({{1.0, 5.0, 2.0}, {4.0, 1.5, 2.5}}), 4.5);
  EXPECT_DOUBLE_EQ(sum_of_minima({{1.0, 2.0}}), 3.0);
  EXPECT_DOUBLE_EQ(sum_of_minima({}), 0.0);
  EXPECT_DOUBLE_EQ(sum_of_minima({{1.0, 2.0}, {1.0}}), 0.0);
}

TEST(Spans, NestAndClose) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "rep");
    ScopedSpan inner(&log, "setup", outer.id());
    EXPECT_EQ(log.open_spans(), 2u);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.open_spans(), 0u);
  EXPECT_EQ(log.spans()[1].parent, log.spans()[0].id);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  ScopedSpan off(nullptr, "ignored");  // a null log records nothing
  EXPECT_EQ(log.spans().size(), 2u);
}

TEST(Seeds, StreamsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      EXPECT_EQ(derive_seed(seed, stream), derive_seed(seed, stream));
      seen.insert(derive_seed(seed, stream));
    }
  }
  EXPECT_EQ(seen.size(), 12u);
}

// The seed reaches the model: the same seed reproduces every modeled
// number, another seed changes them.
TEST(Seeds, WorkloadSeedDrivesTheModel) {
  const RepResult a = run_rep({.workload = "tenants_dwrr", .seed = 1}, nullptr);
  const RepResult b = run_rep({.workload = "tenants_dwrr", .seed = 1}, nullptr);
  const RepResult c = run_rep({.workload = "tenants_dwrr", .seed = 2}, nullptr);
  EXPECT_TRUE(a.violations.empty());
  EXPECT_EQ(a.modeled, b.modeled);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_NE(a.modeled.at("p50_us"), c.modeled.at("p50_us"));
  EXPECT_NE(a.attempted, c.attempted);
}

}  // namespace
}  // namespace perfbench
