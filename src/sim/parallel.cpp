#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/check.hpp"

namespace pd::sim {

namespace {

thread_local std::size_t tl_shard = ParallelSim::kNoShard;

TimePoint sat_add(TimePoint t, Duration d) {
  if (t >= Scheduler::kNoEvent - d) return Scheduler::kNoEvent;
  return t + d;
}

Duration dur_sat_add(Duration a, Duration b) {
  if (a >= static_cast<Duration>(Scheduler::kNoEvent) - b) {
    return static_cast<Duration>(Scheduler::kNoEvent);
  }
  return a + b;
}

using Clock = std::chrono::steady_clock;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Weight of the newest wait in a waiter's moving average of late waits
/// (those that outlast the spin budget), and the share of late waits at
/// which it stops spinning.
constexpr double kLateWeight = 1.0 / 16;
constexpr double kMaxLateShare = 1.0 / 8;

/// Sense-reversing barrier whose completion step runs on the last thread
/// to arrive, before any thread is released. A waiter spins for
/// ParallelSim::kBarrierSpin, then parks on the sense word; the releaser
/// notifies only when some thread has parked.
class EpochBarrier {
 public:
  /// Per-thread state; each thread passes its own to every arrival.
  struct Waiter {
    unsigned sense = 0;
    /// Moving share of this thread's waits that outlasted the spin budget.
    /// Spinning pays only while that is rare. When peers keep arriving
    /// late because the host has more runnable threads than cores, a
    /// spinner holds a core a late peer could run on, so it parks at once.
    double late = 0;
    /// Wall time spent in arrive_and_wait, the completion step included.
    std::uint64_t waited_ns = 0;
  };

  /// Spinning pays only when every thread has a hardware thread of its
  /// own; with more threads, a spinner holds the core its peer needs.
  explicit EpochBarrier(unsigned n)
      : n_(n), spin_(n <= std::thread::hardware_concurrency()), left_(n) {}

  template <class Completion>
  void arrive_and_wait(Waiter& w, Completion&& complete) {
    const auto t0 = Clock::now();
    w.sense ^= 1;
    if (left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      left_.store(n_, std::memory_order_relaxed);
      complete();
      // seq_cst store + seq_cst load of parked_, against the waiter's
      // seq_cst increment + reload of sense_: either the waiter sees the
      // flip or the releaser sees the waiter, so no wake-up is lost.
      sense_.store(w.sense);
      if (parked_.load() != 0) sense_.notify_all();
    } else {
      wait(w);
    }
    const auto waited = Clock::now() - t0;
    const double was_late = waited > ParallelSim::kBarrierSpin ? 1.0 : 0.0;
    w.late += kLateWeight * (was_late - w.late);
    w.waited_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited).count());
  }

 private:
  void wait(const Waiter& w) {
    if (spin_ && w.late < kMaxLateShare) {
      const auto give_up = Clock::now() + ParallelSim::kBarrierSpin;
      for (unsigned i = 1;; ++i) {
        if (sense_.load(std::memory_order_acquire) == w.sense) return;
        cpu_relax();
        if (i % 64 == 0 && Clock::now() >= give_up) break;
      }
    }
    parked_.fetch_add(1);
    while (sense_.load() != w.sense) sense_.wait(w.sense ^ 1);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  const unsigned n_;
  const bool spin_;
  std::atomic<unsigned> left_;
  std::atomic<unsigned> sense_{0};
  std::atomic<unsigned> parked_{0};
};

}  // namespace

ParallelSim::ParallelSim(std::size_t shards, unsigned os_threads) {
  PD_CHECK(shards > 0, "parallel sim needs at least one shard");
  shards_.resize(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    shards_[k].sched = std::make_unique<Scheduler>(k, shards);
    shards_[k].outbox.resize(shards);
  }
  d_in_.assign(shards, std::vector<Duration>(shards, lookahead_));
  for (std::size_t k = 0; k < shards; ++k) d_in_[k][k] = 0;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned want = os_threads == 0 ? hw : os_threads;
  threads_ = std::max(1u, std::min<unsigned>(
                              want, static_cast<unsigned>(shards)));
}

ParallelSim::~ParallelSim() = default;

void ParallelSim::set_lookahead_matrix(std::vector<std::vector<Duration>> d) {
  PD_CHECK(!running_, "lookahead change mid-run");
  const std::size_t n = shards_.size();
  PD_CHECK(d.size() == n, "lookahead matrix has " << d.size() << " rows for "
                                                  << n << " shards");
  for (std::size_t i = 0; i < n; ++i) {
    PD_CHECK(d[i].size() == n, "lookahead matrix row " << i << " has "
                                                       << d[i].size()
                                                       << " columns");
    d[i][i] = 0;  // self-influence is local, not a mailbox path
    for (std::size_t j = 0; j < n; ++j) {
      PD_CHECK(i == j || d[i][j] >= 1,
               "lookahead[" << i << "][" << j << "] must be >= 1 ns");
    }
  }
  // Min-plus closure (Floyd–Warshall): an influence relayed through shard m
  // is bounded by D[i][m] + D[m][j], so the effective pairwise bound is the
  // cheapest path, not the direct edge.
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      const Duration im = d[i][m];
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], dur_sat_add(im, d[m][j]));
      }
    }
  }
  Duration min_off = static_cast<Duration>(Scheduler::kNoEvent);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) min_off = std::min(min_off, d[i][j]);
    }
  }
  if (n > 1) lookahead_ = min_off;
  // Transpose into inbound form so plan()'s hot scan for shard k walks one
  // contiguous row: d_in_[k][j] = closed D[j][k].
  d_in_.assign(n, std::vector<Duration>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) d_in_[j][i] = d[i][j];
  }
}

void ParallelSim::set_shard_hooks(ShardHook enter, ShardHook leave) {
  enter_shard_ = std::move(enter);
  leave_shard_ = std::move(leave);
}

void ParallelSim::post(std::size_t dst, TimePoint t, EventFn&& fn,
                       bool foreground) {
  PD_CHECK(dst < shards_.size(), "post to unknown shard " << dst);
  const std::size_t src = tl_shard;
  if (!running_ || src == dst) {
    // Setup phase (single-threaded, nothing running) or a post back to the
    // executing shard itself: an ordinary local event.
    Scheduler& sched = *shards_[dst].sched;
    if (foreground) {
      sched.schedule_at(t, std::move(fn));
    } else {
      sched.schedule_background_at(t, std::move(fn));
    }
    return;
  }
  PD_CHECK(src != kNoShard, "cross-shard post from outside a shard phase");
  Shard& sender = shards_[src];
  // The posting event runs at sender.sched->now(); its influence may not
  // land on dst earlier than now + D[src][dst]. Per-pair, and anchored on
  // the actual posting time rather than the epoch floor, this is strictly
  // stronger than the PR 4 epoch_floor + L check.
  PD_CHECK(t >= sat_add(sender.sched->now(), d_in_[dst][src]),
           "cross-shard post at t=" << t << " violates lookahead (now="
                                    << sender.sched->now() << " D["
                                    << src << "][" << dst
                                    << "]=" << d_in_[dst][src] << ")");
  ++sender.posted_msgs;
  // Reflection cap: this event, once it reaches dst, can bounce an
  // influence back here no earlier than t + D[dst][src]. Shrink our own
  // window so we never run past that point. The cap is > now
  // (t >= now + D[src][dst] and D[dst][src] >= 1), so the event currently
  // executing is never invalidated.
  sender.window_cap = std::min(sender.window_cap, sat_add(t, d_in_[src][dst]));
  // The event's place among same-time events is fixed here, by a seq from
  // the sender's lane, so it does not depend on when it reaches dst.
  const std::uint64_t seq = sender.sched->reserve_seq();
  if (threads_ == 1) {
    // Nothing runs concurrently: insert at once. dst never runs past the
    // lookahead bound t respects, so this lands after everything it ran.
    shards_[dst].sched->schedule_reserved(t, seq, std::move(fn), !foreground);
  } else {
    sender.outbox[dst].emplace_back(t, seq, foreground, std::move(fn));
  }
}

void ParallelSim::drain(std::size_t k) {
  Scheduler& sched = *shards_[k].sched;
  for (Shard& src : shards_) {
    Mailbox& mb = src.outbox[k];
    for (CrossEvent& e : mb) {
      sched.schedule_reserved(e.t, e.seq, std::move(e.fn), !e.foreground);
    }
    mb.clear();
  }
  shards_[k].next = sched.next_event_time();
}

bool ParallelSim::plan(TimePoint deadline, bool until_mode) {
  ++epochs_;
  TimePoint min1 = Scheduler::kNoEvent;
  TimePoint min2 = Scheduler::kNoEvent;
  std::size_t owner = kNoShard;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const TimePoint next = shards_[k].next;
    if (next < min1) {
      min2 = min1;
      min1 = next;
      owner = k;
    } else if (next < min2) {
      min2 = next;
    }
  }
  if (until_mode) {
    if (min1 > deadline) return true;  // every remaining event is later
  } else {
    // Every mailbox was just drained, so nothing is in flight.
    std::uint64_t fg = 0;
    for (const Shard& s : shards_) fg += s.sched->foreground_live();
    if (fg == 0 || min1 == Scheduler::kNoEvent) return true;
  }
  bool skipped = false;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& s = shards_[k];
    // Uniform-L horizon: influence from another shard cannot land
    // before (their earliest event) + L; influence reflected off our own
    // earliest post needs 2L. It is only the reference skip-ahead epochs
    // count against.
    const TimePoint other = k == owner ? min2 : min1;
    const TimePoint base = std::min(other, sat_add(s.next, lookahead_));
    TimePoint uniform_h = sat_add(base, lookahead_);
    if (until_mode) uniform_h = std::min(uniform_h, deadline + 1);
    // H_k = min over the other shards of next_j + D[j][k]. Idle shards
    // contribute nothing (empty-mailbox skip-ahead); the k -> j -> k
    // reflection is handled dynamically by window_cap, so there is no
    // self term. kNoEvent means an unbounded grant: run until local
    // foreground work drains (never spin on background self-ticks).
    TimePoint h = Scheduler::kNoEvent;
    const std::vector<Duration>& din = d_in_[k];
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      if (j == k) continue;
      h = std::min(h, sat_add(shards_[j].next, din[j]));
    }
    bool fg_bounded = false;
    if (until_mode) {
      h = std::min(h, deadline + 1);
    } else {
      fg_bounded = h == Scheduler::kNoEvent;
    }
    if (h > uniform_h) skipped = true;
    s.window_cap = h;
    s.fg_bounded = fg_bounded;
  }
  if (skipped) ++skip_ahead_epochs_;
  return false;
}

void ParallelSim::execute(std::size_t k) {
  Shard& s = shards_[k];
  // Nothing can run this epoch: s.next is the earliest event after the
  // drain, and cross-shard posts made during the epoch land at or past
  // the window end. Skip the shard without entering it.
  if (s.next >= s.window_cap) return;
  tl_shard = k;
  if (enter_shard_) enter_shard_(k);
  // window_cap may shrink mid-window when an event here posts cross-shard
  // (the reflection cap installed by post()), hence the dynamic variant.
  s.sched->run_window_dynamic(s.window_cap, s.fg_bounded);
  if (leave_shard_) leave_shard_(k);
  tl_shard = kNoShard;
}

bool ParallelSim::drain_and_plan(TimePoint deadline, bool until_mode) {
  for (std::size_t k = 0; k < shards_.size(); ++k) drain(k);
  return plan(deadline, until_mode);
}

void ParallelSim::drive_serial() {
  while (!drain_and_plan(0, /*until_mode=*/false)) {
    for (std::size_t k = 0; k < shards_.size(); ++k) execute(k);
  }
}

void ParallelSim::drive_inline(TimePoint deadline) {
  const std::size_t n = shards_.size();
  for (;;) {
    // Posts land in their destination at once, so each scheduler's next
    // event is live: no drain, no all-shard plan.
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
      shards_[j].next = shards_[j].sched->next_event_time();
      if (shards_[j].next < shards_[k].next) k = j;
    }
    if (shards_[k].next > deadline) return;
    // The earliest shard runs up to the first time another shard's next
    // event could reach it. That bound exceeds its own next event, so
    // every window fires at least one.
    TimePoint h = deadline + 1;
    const std::vector<Duration>& din = d_in_[k];
    for (std::size_t j = 0; j < n; ++j) {
      if (j != k) h = std::min(h, sat_add(shards_[j].next, din[j]));
    }
    ++epochs_;
    shards_[k].window_cap = h;
    shards_[k].fg_bounded = false;
    execute(k);
  }
}

void ParallelSim::drive_threaded(TimePoint deadline, bool until_mode) {
  if (drain_and_plan(deadline, until_mode)) return;
  // One meeting per epoch: each thread executes its shards and arrives;
  // the last to arrive drains and plans the next epoch before releasing
  // the others.
  EpochBarrier bar(threads_);
  bool stop = false;
  auto worker = [this, &bar, &stop, deadline, until_mode](unsigned ti) {
    EpochBarrier::Waiter w;
    do {
      for (std::size_t k = ti; k < shards_.size(); k += threads_) execute(k);
      bar.arrive_and_wait(
          w, [&] { stop = drain_and_plan(deadline, until_mode); });
    } while (!stop);
    barrier_wait_ns_.fetch_add(w.waited_ns, std::memory_order_relaxed);
  };
  std::vector<std::thread> pool;
  pool.reserve(threads_ - 1);
  for (unsigned ti = 1; ti < threads_; ++ti) pool.emplace_back(worker, ti);
  worker(0);
  for (std::thread& t : pool) t.join();
}

std::size_t ParallelSim::drive(TimePoint deadline, bool until_mode) {
  PD_CHECK(!running_, "re-entrant parallel run");
  const std::uint64_t before = events_processed();
  running_ = true;
  if (threads_ > 1) {
    drive_threaded(deadline, until_mode);
  } else if (until_mode) {
    drive_inline(deadline);
  } else {
    drive_serial();
  }
  running_ = false;
  if (until_mode) {
    for (Shard& s : shards_) s.sched->advance_to(deadline);
  }
  return static_cast<std::size_t>(events_processed() - before);
}

std::size_t ParallelSim::run() { return drive(0, /*until_mode=*/false); }

std::size_t ParallelSim::run_until(TimePoint deadline) {
  for (Shard& s : shards_) {
    PD_CHECK(deadline >= s.sched->now(), "deadline in the past");
  }
  return drive(deadline, /*until_mode=*/true);
}

std::uint64_t ParallelSim::events_processed() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sched->events_processed();
  return total;
}

std::uint64_t ParallelSim::mailbox_msgs() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.posted_msgs;
  return total;
}

}  // namespace pd::sim
