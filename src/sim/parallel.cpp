#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

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

}  // namespace

ParallelSim::ParallelSim(std::size_t shards, unsigned os_threads) {
  PD_CHECK(shards > 0, "parallel sim needs at least one shard");
  shards_.resize(shards);
  for (Shard& s : shards_) {
    s.sched = std::make_unique<Scheduler>();
    s.inbox.reserve(shards);
    for (std::size_t src = 0; src < shards; ++src) {
      s.inbox.push_back(std::make_unique<Mailbox>());
    }
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

void ParallelSim::post(std::size_t dst, TimePoint t, EventFn fn,
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
  // Reflection cap: this event, once drained into dst, can bounce an
  // influence back here no earlier than t + D[dst][src]. Shrink our own
  // window so we never run past that point within this epoch. The cap is
  // > now (t >= now + D[src][dst] and D[dst][src] >= 1), so the event
  // currently executing is never invalidated.
  sender.window_cap = std::min(sender.window_cap, sat_add(t, d_in_[src][dst]));
  if (foreground) in_flight_fg_.fetch_add(1, std::memory_order_relaxed);
  Mailbox& mb = *shards_[dst].inbox[src];
  CrossEvent e{t, foreground, std::move(fn)};
  if (!mb.spilling && !mb.ring.full()) {
    const bool ok = mb.ring.try_push(std::move(e));
    PD_CHECK(ok, "SPSC mailbox push raced its own producer");
    return;
  }
  std::lock_guard<std::mutex> lock(mb.mu);
  mb.spilling = true;
  mb.spill.push_back(std::move(e));
}

void ParallelSim::drain(std::size_t k) {
  Shard& s = shards_[k];
  Scheduler& sched = *s.sched;
  auto deliver = [&](CrossEvent&& e) {
    if (e.foreground) {
      sched.schedule_at(e.t, std::move(e.fn));
      in_flight_fg_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      sched.schedule_background_at(e.t, std::move(e.fn));
    }
  };
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    Mailbox& mb = *s.inbox[src];
    while (auto e = mb.ring.try_pop()) deliver(std::move(*e));
    if (mb.spilling) {
      std::lock_guard<std::mutex> lock(mb.mu);
      for (CrossEvent& e : mb.spill) deliver(std::move(e));
      mb.spill.clear();
      mb.spilling = false;
    }
  }
  s.next = sched.next_event_time();
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
    std::uint64_t fg = in_flight_fg_.load(std::memory_order_relaxed);
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
    s.horizon = h;
    s.window_cap = h;
    s.fg_bounded = fg_bounded;
  }
  if (skipped) ++skip_ahead_epochs_;
  return false;
}

void ParallelSim::execute(std::size_t k) {
  tl_shard = k;
  if (enter_shard_) enter_shard_(k);
  Shard& s = shards_[k];
  // window_cap may shrink mid-window when an event here posts cross-shard
  // (the reflection cap installed by post()), hence the dynamic variant.
  s.sched->run_window_dynamic(s.window_cap, s.fg_bounded);
  if (leave_shard_) leave_shard_(k);
  tl_shard = kNoShard;
}

void ParallelSim::drive_serial(TimePoint deadline, bool until_mode) {
  for (;;) {
    for (std::size_t k = 0; k < shards_.size(); ++k) drain(k);
    if (plan(deadline, until_mode)) return;
    for (std::size_t k = 0; k < shards_.size(); ++k) execute(k);
  }
}

void ParallelSim::drive_threaded(TimePoint deadline, bool until_mode) {
  struct Sync {
    int phase = 0;
    bool stop = false;
  };
  Sync sync;
  // Completion runs exactly once per barrier cycle, after every thread
  // arrives and before any is released — the serial plan slice.
  std::barrier bar(static_cast<std::ptrdiff_t>(threads_),
                   [this, &sync, deadline, until_mode]() noexcept {
                     if (sync.phase == 0) {
                       sync.stop = plan(deadline, until_mode);
                     }
                     sync.phase ^= 1;
                   });
  auto worker = [this, &sync, &bar](unsigned ti) {
    using Clock = std::chrono::steady_clock;
    std::uint64_t waited = 0;
    auto arrive = [&bar, &waited] {
      const auto t0 = Clock::now();
      bar.arrive_and_wait();
      waited += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
    };
    for (;;) {
      for (std::size_t k = ti; k < shards_.size(); k += threads_) drain(k);
      arrive();  // -> plan
      if (sync.stop) break;
      for (std::size_t k = ti; k < shards_.size(); k += threads_) execute(k);
      arrive();  // posts visible before the next drain
    }
    barrier_wait_ns_.fetch_add(waited, std::memory_order_relaxed);
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
  if (threads_ == 1) {
    drive_serial(deadline, until_mode);
  } else {
    drive_threaded(deadline, until_mode);
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
