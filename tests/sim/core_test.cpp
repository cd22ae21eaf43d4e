#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

namespace pd::sim {
namespace {

TEST(Core, ExecutesWorkAfterServiceTime) {
  Scheduler s;
  Core core(s, "cpu0");
  TimePoint done_at = -1;
  core.submit(1000, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 1000);
  EXPECT_EQ(core.busy_ns(), 1000);
}

TEST(Core, SerializesFifo) {
  Scheduler s;
  Core core(s, "cpu0");
  std::vector<int> order;
  TimePoint second_done = -1;
  core.submit(100, [&] { order.push_back(1); });
  core.submit(200, [&] {
    order.push_back(2);
    second_done = s.now();
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(second_done, 300);  // waits for the first job
}

TEST(Core, SpeedScalesServiceTime) {
  Scheduler s;
  Core dpu(s, "dpu0", 0.5);  // wimpy DPU core: half speed
  TimePoint done_at = -1;
  dpu.submit(1000, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 2000);
}

TEST(Core, IdleGapThenNewWork) {
  Scheduler s;
  Core core(s, "cpu0");
  core.submit(100);
  s.run();
  EXPECT_EQ(s.now(), 100);
  // Idle until t=500, then new work starts immediately.
  s.schedule_at(500, [&] { core.submit(50); });
  s.run();
  EXPECT_EQ(s.now(), 550);
  EXPECT_EQ(core.busy_ns(), 150);
}

TEST(Core, BacklogReflectsQueuedWork) {
  Scheduler s;
  Core core(s, "cpu0");
  core.submit(100);
  core.submit(200);
  EXPECT_EQ(core.backlog(), 300);
  s.run();
  EXPECT_EQ(core.backlog(), 0);
  EXPECT_TRUE(core.idle());
}

TEST(Core, ZeroWorkCompletesImmediately) {
  Scheduler s;
  Core core(s, "cpu0");
  bool done = false;
  core.submit(0, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.now(), 0);
}

TEST(Core, MinimumOneNsForPositiveWork) {
  Scheduler s;
  Core fast(s, "cpu0", 1000.0);
  TimePoint done_at = -1;
  fast.submit(1, [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, 1);
}

TEST(Core, RejectsNegativeWorkAndBadSpeed) {
  Scheduler s;
  Core core(s, "cpu0");
  EXPECT_THROW(core.submit(-5), CheckFailure);
  EXPECT_THROW(Core(s, "bad", 0.0), CheckFailure);
}

TEST(CoreSet, LeastLoadedSelection) {
  Scheduler s;
  CoreSet set(s, "cpu", 3);
  set.core(0).submit(300);
  set.core(1).submit(100);
  set.core(2).submit(200);
  EXPECT_EQ(&set.least_loaded(), &set.core(1));
  EXPECT_EQ(set.total_busy_ns(), 0);  // nothing completed yet
  s.run();
  EXPECT_EQ(set.total_busy_ns(), 600);
}

TEST(Core, FractionalSpeedCarriesRemainderWithoutDrift) {
  // Regression: speeds that don't divide the work evenly used to truncate
  // the sub-ns remainder on every job. A 0.54-speed core running 1e6 jobs
  // of 10 ns dropped ~5.2 ms of simulated time (18.0 ms observed vs the
  // closed-form 10e6/0.54 = 18.518 ms). The carry accumulator bounds the
  // total error to under 1 ns regardless of job count.
  Scheduler s;
  Core core(s, "dpu0", 0.54);
  constexpr int kJobs = 1'000'000;
  constexpr Duration kWork = 10;
  int done = 0;
  // Chain the submissions so the queue stays shallow.
  std::function<void()> next = [&] {
    ++done;
    if (done < kJobs) core.submit(kWork, [&] { next(); });
  };
  core.submit(kWork, [&] { next(); });
  s.run();
  EXPECT_EQ(done, kJobs);
  const double ideal = static_cast<double>(kJobs) * kWork / 0.54;
  EXPECT_NEAR(static_cast<double>(s.now()), ideal, 1.0);
  EXPECT_NEAR(static_cast<double>(core.busy_ns()), ideal, 1.0);
}

TEST(Core, FractionalCarryDoesNotBreakMinimumOneNs) {
  // The 1-ns clamp for positive work must still hold, and the clamp must
  // not bank phantom credit that would shorten later jobs.
  Scheduler s;
  Core fast(s, "cpu0", 1000.0);
  for (int i = 0; i < 10; ++i) fast.submit(1);
  s.run();
  EXPECT_EQ(s.now(), 10);  // 10 clamped jobs, 1 ns each — no credit leaks
}

TEST(Core, AcceptsMoveOnlyCallback) {
  Scheduler s;
  Core core(s, "cpu0");
  int got = 0;
  core.submit(10, [p = std::make_unique<int>(7), &got] { got = *p; });
  s.run();
  EXPECT_EQ(got, 7);
}

// The first job's callback submits 40 jobs to its own core while it runs
// in its scheduler slot. Its capture (an array near the inline limit) must
// stay intact, and every job must complete in FIFO order at the serial
// times.
TEST(Core, CallbackSubmittingToItsOwnCoreKeepsFifoOrder) {
  Scheduler s;
  Core core(s, "cpu0");
  std::vector<std::pair<int, TimePoint>> done;
  std::array<std::uint64_t, 10> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::uint64_t after = 0;
  core.submit(100, [&done, &s, &core, &after, payload] {
    done.emplace_back(0, s.now());
    for (int i = 0; i < 40; ++i) {
      core.submit(10 * (i + 1), [&done, &s, i] {
        done.emplace_back(100 + i, s.now());
      });
    }
    after = std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
  });
  for (int b = 1; b <= 5; ++b) {
    core.submit(50, [&done, &s, b] { done.emplace_back(b, s.now()); });
  }
  s.run();

  std::vector<std::pair<int, TimePoint>> expect{{0, 100}};
  TimePoint t = 100;
  for (int b = 1; b <= 5; ++b) expect.emplace_back(b, t += 50);
  for (int i = 0; i < 40; ++i) expect.emplace_back(100 + i, t += 10 * (i + 1));
  EXPECT_EQ(done, expect);
  EXPECT_EQ(after, 55u);
  EXPECT_EQ(core.busy_ns(), 100 + 5 * 50 + 10 * (40 * 41 / 2));
  EXPECT_EQ(core.queue_len(), 0u);
}

// Jobs that finish at the same ns complete in submission order, and an
// ordinary event scheduled between two submits fires between them.
TEST(Core, SameNsCompletionsKeepSubmissionOrder) {
  Scheduler s;
  Core core(s, "cpu0");
  std::vector<int> order;
  core.submit(100, [&] { order.push_back(1); });
  core.submit(0, [&] { order.push_back(2); });
  s.schedule_at(100, [&] { order.push_back(3); });
  core.submit(0, [&] { order.push_back(4); });
  core.submit(0);
  core.submit(0, [&] { order.push_back(5); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(core.busy_ns(), 100);
}

// Zero-work jobs still queue behind earlier work, count in queue_len()
// until they complete, and add nothing to busy_ns().
TEST(Core, ZeroWorkJobsQueueBehindEarlierWork) {
  Scheduler s;
  Core core(s, "cpu0");
  TimePoint zero_done = -1;
  core.submit(0);
  core.submit(300);
  core.submit(0, [&] { zero_done = s.now(); });
  EXPECT_EQ(core.queue_len(), 3u);
  EXPECT_EQ(s.run_until(0), 1u);  // the first zero-work job completes at 0
  EXPECT_EQ(core.queue_len(), 2u);
  EXPECT_EQ(core.busy_ns(), 0);
  s.run();
  EXPECT_EQ(zero_done, 300);
  EXPECT_EQ(core.busy_ns(), 300);
  EXPECT_EQ(core.queue_len(), 0u);
}

// queue_len(), busy_ns() and backlog() while jobs are queued: busy time is
// credited at each completion, backlog counts down to the last one.
TEST(Core, AccountingWhileJobsAreQueued) {
  Scheduler s;
  Core core(s, "cpu0");
  core.submit(100);
  core.submit(200, [] {});
  core.submit(300);
  EXPECT_EQ(core.queue_len(), 3u);
  EXPECT_EQ(core.busy_ns(), 0);
  EXPECT_EQ(core.backlog(), 600);
  EXPECT_EQ(core.free_at(), 600);

  s.run_until(150);
  EXPECT_EQ(core.queue_len(), 2u);
  EXPECT_EQ(core.busy_ns(), 100);
  EXPECT_EQ(core.backlog(), 450);
  EXPECT_FALSE(core.idle());

  s.run_until(300);  // the second job completes exactly at the deadline
  EXPECT_EQ(core.queue_len(), 1u);
  EXPECT_EQ(core.busy_ns(), 300);
  EXPECT_EQ(core.backlog(), 300);

  s.run();
  EXPECT_EQ(core.queue_len(), 0u);
  EXPECT_EQ(core.busy_ns(), 600);
  EXPECT_EQ(core.backlog(), 0);
  EXPECT_TRUE(core.idle());
}

// An EventFn passed with std::move is accepted (boxed, since it does not
// fit inside another EventFn's inline buffer) and runs at completion, in
// order with lambda callbacks; an empty EventFn is a job without callback.
TEST(Core, AcceptsEventFnCallback) {
  Scheduler s;
  Core core(s, "cpu0");
  std::vector<int> order;
  EventFn first = [&order] { order.push_back(1); };
  core.submit(100, std::move(first));
  EXPECT_FALSE(static_cast<bool>(first));
  core.submit(50, [&order] { order.push_back(2); });
  core.submit(10, EventFn{});
  EventFn last = [&order, &s] { order.push_back(static_cast<int>(s.now())); };
  core.submit(0, std::move(last));
  EXPECT_EQ(core.queue_len(), 4u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 160}));
  EXPECT_EQ(core.busy_ns(), 160);
  EXPECT_EQ(core.queue_len(), 0u);
}

}  // namespace
}  // namespace pd::sim
