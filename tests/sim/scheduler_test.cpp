#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

namespace pd::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, FifoTieBreakAtEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  TimePoint fired = -1;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 75);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  EXPECT_EQ(s.run(), 100u);
  EXPECT_EQ(s.now(), 99);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventId id = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelOneOfMany) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(1); });
  EventId id = s.schedule_at(20, [&] { order.push_back(2); });
  s.schedule_at(30, [&] { order.push_back(3); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Scheduler s;
  std::vector<TimePoint> fired;
  for (TimePoint t : {10, 20, 30, 40}) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(25), 2u);
  EXPECT_EQ(s.now(), 25);
  EXPECT_EQ(fired, (std::vector<TimePoint>{10, 20}));
  EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, RunUntilInclusiveOfDeadline) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunStepsLimitsExecution) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(s.run_steps(4), 4u);
  EXPECT_EQ(count, 4);
  s.run();
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RejectsSchedulingIntoThePast) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(50, [] {}), CheckFailure);
  EXPECT_THROW(s.schedule_after(-1, [] {}), CheckFailure);
}

TEST(Scheduler, DeterministicEventCount) {
  // Two identical runs must process identical event counts in identical
  // order — the foundation of reproducible benchmarks.
  auto run_once = [] {
    Scheduler s;
    std::vector<TimePoint> trace;
    std::function<void(int)> spawn = [&](int n) {
      trace.push_back(s.now());
      if (n > 0) {
        s.schedule_after(3, [&spawn, n] { spawn(n - 1); });
        s.schedule_after(7, [&spawn, n] { spawn(n / 2); });
      }
    };
    s.schedule_at(0, [&] { spawn(6); });
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, PendingReflectsCancellations) {
  Scheduler s;
  EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
  // The slab recycles slots: after event A fires (or is cancelled), a new
  // event B may land in A's slot. A's stale EventId must not cancel B —
  // the generation counter has to disambiguate.
  Scheduler s;
  EventId a = s.schedule_at(10, [] {});
  ASSERT_TRUE(s.cancel(a));  // slot freed, back on the free list
  bool b_fired = false;
  EventId b = s.schedule_at(20, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));  // stale handle: same slot, older generation
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, StaleIdOfFiredEventIsRejected) {
  Scheduler s;
  EventId a = s.schedule_at(5, [] {});
  s.run();
  bool b_fired = false;
  s.schedule_at(10, [&] { b_fired = true; });  // likely reuses a's slot
  EXPECT_FALSE(s.cancel(a));
  s.run();
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, LargeCallableUsesHeapFallbackCorrectly) {
  // Callables above EventFn's inline buffer must still round-trip through
  // the slab (heap-backed), surviving slab growth.
  Scheduler s;
  std::array<std::uint64_t, 64> payload{};  // 512 B, well past kInlineBytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 7 + 1;
  std::uint64_t sum = 0;
  s.schedule_at(10, [payload, &sum] {
    for (auto v : payload) sum += v;
  });
  // Force slab growth between scheduling and firing.
  for (int i = 0; i < 1000; ++i) s.schedule_at(5, [] {});
  s.run();
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) expect += i * 7 + 1;
  EXPECT_EQ(sum, expect);
}

TEST(Scheduler, StressInterleavedScheduleCancelIsDeterministic) {
  // Differential check: heavy interleaving of schedule/cancel/fire with
  // slot churn must produce the same trace on every run and never lose or
  // duplicate an event.
  auto run_once = [] {
    Scheduler s;
    std::vector<std::pair<TimePoint, int>> trace;
    std::vector<EventId> live;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int i = 0; i < 5000; ++i) {
      const auto r = next();
      if (r % 3 != 0 || live.empty()) {
        const auto dt = static_cast<Duration>(r % 97);
        live.push_back(s.schedule_after(
            dt, [&trace, &s, i] { trace.emplace_back(s.now(), i); }));
      } else {
        s.cancel(live[next() % live.size()]);
      }
      if (r % 11 == 0) s.run_steps(2);
    }
    s.run();
    return trace;
  };
  const auto a = run_once();
  EXPECT_EQ(a, run_once());
  EXPECT_FALSE(a.empty());
}

TEST(Scheduler, CancelFromInsideEventCallback) {
  // Cancelling a pending event while another event is firing exercises
  // heap removal during pop — the hole left by the firing root and the
  // cancelled node must not collide.
  Scheduler s;
  bool fired = false;
  EventId victim = s.schedule_at(10, [&] { fired = true; });
  s.schedule_at(10, [&] { s.cancel(victim); });
  // FIFO order at t=10 would fire `victim` second — but it was scheduled
  // first, so it fires before the canceller. Use a later victim instead.
  s.run();
  EXPECT_TRUE(fired);  // scheduled first, fires first
  bool fired2 = false;
  EventId victim2 = s.schedule_at(30, [&] { fired2 = true; });
  s.schedule_at(20, [&] { s.cancel(victim2); });
  s.run();
  EXPECT_FALSE(fired2);
}

// A callback that schedules enough events to add several slab chunks
// while it runs, then reads its own capture: the callable runs in place,
// so its storage must not move or be reused under it. N words of capture;
// N * 8 above EventFn::kInlineBytes takes the heap fallback.
template <std::size_t N>
void expect_capture_survives_slab_growth() {
  Scheduler s;
  std::array<std::uint64_t, N> payload{};
  for (std::size_t i = 0; i < N; ++i) payload[i] = i * 7 + 1;
  const std::uint64_t expect =
      std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  int children = 0;
  s.schedule_at(10, [payload, &s, &before, &after, &children] {
    before = std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
    for (int i = 0; i < 1500; ++i) s.schedule_after(i % 7, [&] { ++children; });
    after = std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
  });
  EXPECT_EQ(s.run(), 1501u);
  EXPECT_EQ(before, expect);
  EXPECT_EQ(after, expect);
  EXPECT_EQ(children, 1500);
}

TEST(Scheduler, HeapCaptureSurvivesSchedulingFromItsOwnCallback) {
  static_assert(sizeof(std::array<std::uint64_t, 40>) > EventFn::kInlineBytes);
  expect_capture_survives_slab_growth<40>();
}

TEST(Scheduler, InlineCaptureSurvivesSchedulingFromItsOwnCallback) {
  static_assert(sizeof(std::array<std::uint64_t, 12>) + 4 * sizeof(void*) <=
                EventFn::kInlineBytes);
  expect_capture_survives_slab_growth<12>();
}

TEST(Scheduler, RunningEventCannotCancelItselfAndItsIdGoesStale) {
  Scheduler s;
  EventId self = kInvalidEvent;
  EventId child = kInvalidEvent;
  bool self_cancel = true;
  bool child_fired = false;
  self = s.schedule_at(10, [&] {
    self_cancel = s.cancel(self);
    child = s.schedule_after(5, [&] { child_fired = true; });
  });
  EXPECT_EQ(s.run_steps(1), 1u);
  EXPECT_FALSE(self_cancel);
  EXPECT_NE(child, kInvalidEvent);
  EXPECT_NE(child, self);
  EXPECT_FALSE(s.cancel(self));  // fired: stale
  // The freed slot is reused by the next event; the old id still must not
  // reach it.
  bool reuser_fired = false;
  const EventId reuser = s.schedule_at(30, [&] { reuser_fired = true; });
  EXPECT_NE(reuser, self);
  EXPECT_FALSE(s.cancel(self));
  s.run();
  EXPECT_TRUE(child_fired);
  EXPECT_TRUE(reuser_fired);
}

TEST(Scheduler, SameTimeEventsWithCancelsFireInInsertionOrder) {
  // Cancels free slots that later events reuse, so slot numbers stop
  // following insertion order; the packed key must still order by seq.
  constexpr int kEvents = 100'000;
  Scheduler s;
  std::vector<int> fired;
  std::vector<int> expect;
  std::vector<EventId> ids;
  fired.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(s.schedule_at(5, [&fired, i] { fired.push_back(i); }));
    if (i % 3 == 2) {
      ASSERT_TRUE(s.cancel(ids[static_cast<std::size_t>(i - 1)]));
    }
  }
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 1) expect.push_back(i);
  }
  s.run();
  EXPECT_EQ(fired, expect);
}

TEST(Scheduler, AcceptsMoveOnlyCaptures) {
  Scheduler s;
  int got = 0;
  s.schedule_at(5, [p = std::make_unique<int>(7), &got] { got += *p; });
  s.schedule_background_after(
      1, [p = std::make_unique<int>(3), &got] { got += *p; });
  s.run_until(10);
  EXPECT_EQ(got, 10);
}

// Lane-strided seqs: lane k of S draws counter·S + k, and an event
// enqueued under a seq reserved on another lane fires among same-time
// events by that seq, however late it is enqueued.
TEST(Scheduler, ReservedSeqFixesSameTimeOrderAtReservation) {
  Scheduler a(/*lane=*/0, /*lanes=*/2);
  Scheduler b(/*lane=*/1, /*lanes=*/2);
  std::vector<int> order;
  const std::uint64_t early = a.reserve_seq();  // 2
  b.schedule_at(10, [&] { order.push_back(1); });  // 3
  b.schedule_background_at(10, [&] { order.push_back(2); });  // 5
  const std::uint64_t late = a.reserve_seq();  // 4
  EXPECT_EQ(early, 2u);
  EXPECT_EQ(late, 4u);
  b.schedule_reserved(10, late, [&] { order.push_back(9); },
                      /*background=*/false);
  b.schedule_reserved(10, early, [&] { order.push_back(0); },
                      /*background=*/true);
  EXPECT_EQ(b.run_until(10), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
  EXPECT_EQ(b.reserve_seq(), 7u);  // b's own lane never consumed a's seqs
}

}  // namespace
}  // namespace pd::sim
