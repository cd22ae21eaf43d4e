// Conservative parallel discrete-event simulation (PR 4 tentpole,
// adaptive lookahead + skip-ahead in ISSUE 9).
//
// A ParallelSim partitions the cluster into shards — one sim::Scheduler
// per simulated node (plus shard 0 for the "edge": client, ingress, and
// everything else control-plane) — and advances them in lockstep epochs.
// Shards never touch each other's state directly: every cross-shard
// effect is an absolute-time event posted to the destination's scheduler.
// Its place among same-time events is fixed at post time by a seq from
// the sender's lane (Scheduler::reserve_seq), so event order is a function
// of the model alone, not of where epochs end. Threaded, the event waits
// in a per-(src,dst) mailbox until the next epoch boundary; on one thread
// it is inserted at once.
//
// Safety (no causality violation) comes from per-pair lookahead: an
// event executing on shard j at time t can influence shard k no earlier
// than t + D[j][k], where D is the min-plus closure of each pair's
// minimum path latency through the fabric (so relay chains j -> m -> k
// are bounded too). Each epoch, shard k may run every event strictly
// before
//
//   H_k = min_{j != k} ( next_j + D[j][k] )
//
// where next_j is shard j's earliest pending timestamp after the drain.
// Idle shards (next_j = kNoEvent) contribute nothing — a shard whose
// inbound mailboxes are provably empty past the barrier skips straight
// ahead to its next local event instead of crawling epoch-by-epoch.
// Reflection (k -> j -> k) is bounded dynamically: the moment shard k
// posts cross-shard to j with arrival time t_a, its own window end
// shrinks to min(H_k, t_a + D[j][k]) — before that first send there is
// nothing in flight to reflect, because j runs nothing k posts before
// k's window ends. The shard owning the global minimum always has
// H_k > next_k, so every epoch fires at least one event and virtual time
// advances.
// (The original uniform-L formula h_k = min(min_{j!=k} next_j, next_k + L)
// + L, with L the smallest pair entry, survives only as the reference that
// skip_ahead_epochs() counts against.)
//
// A one-shard ParallelSim is the plain serial simulation: there is no
// other shard to bound the horizon, so run_until() executes in a single
// window and run() drains in one, with no mailbox traffic.
//
// On one OS thread run_until() needs no epochs: it repeatedly runs the
// shard with the earliest event up to min_{j != k}(next_j + D[j][k]),
// the same horizon an epoch would grant it, under the same reflection
// cap. run() keeps the epoch loop on every driver: where it stops — which
// background events fire before the last foreground event drains —
// depends on epoch boundaries, so it must draw them the same way for any
// thread count.
//
// Determinism across worker-thread counts is structural. A shard only
// ever runs events below a bound no other shard's post can undercut, and
// same-time ties break by post-time seqs, so each shard fires the same
// events in the same order under any grouping into windows. Threaded, an
// epoch is execute | barrier, and the barrier's completion step — run by
// the last thread to arrive, before any thread is released — drains every
// mailbox and plans the next epoch's horizons (the first drain + plan
// runs once on the calling thread before the workers start). One OS
// thread or four produce bit-identical simulations; only the protocol
// counters (epochs, skip-ahead) depend on the driver.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"

namespace pd::sim {

class ParallelSim {
 public:
  /// `shards`: number of schedulers (topology-determined: 1 + worker
  /// nodes). `os_threads`: worker threads driving them; 0 = auto
  /// (min(shards, hardware_concurrency)). An explicit value is honored up
  /// to `shards` — determinism never depends on it.
  explicit ParallelSim(std::size_t shards, unsigned os_threads = 0);
  ~ParallelSim();

  ParallelSim(const ParallelSim&) = delete;
  ParallelSim& operator=(const ParallelSim&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Scheduler& shard(std::size_t k) { return *shards_[k].sched; }
  /// OS threads the drivers will actually use.
  [[nodiscard]] unsigned os_threads() const { return threads_; }

  /// Per-pair lookahead matrix: d[src][dst] lower-bounds the latency of
  /// any direct influence from an event on `src` to shard `dst` (the
  /// cluster derives it from per-pair fabric path latency). The matrix is
  /// closed under min-plus here (Floyd–Warshall), so multi-shard relay
  /// chains are bounded by the pairwise entries too. Off-diagonal entries
  /// must be >= 1; must be set before a run. Until then every pair is
  /// bounded by 1 ns (always safe).
  void set_lookahead_matrix(std::vector<std::vector<Duration>> d);
  /// Effective (closed) lookahead from shard `src` to shard `dst`.
  [[nodiscard]] Duration lookahead(std::size_t src, std::size_t dst) const {
    return d_in_[dst][src];
  }

  /// Hooks run around a shard's execute phase on whichever thread drives
  /// it (the runtime installs the shard's observability hub here). A shard
  /// with no event before its window end is not entered that epoch, so
  /// its hooks do not run.
  using ShardHook = std::function<void(std::size_t shard)>;
  void set_shard_hooks(ShardHook enter, ShardHook leave);

  /// Post `fn` to run on shard `dst` at absolute time `t`. From model code
  /// inside a run, `t` must respect the pair's lookahead (t >= the posting
  /// shard's now() + D[src][dst]); outside a run (setup phase) any future
  /// time is accepted and the event is scheduled directly. `foreground`
  /// mirrors Scheduler::schedule_at vs schedule_background_at.
  void post(std::size_t dst, TimePoint t, EventFn&& fn, bool foreground = true);

  /// How long a thread waiting at the epoch barrier spins before it parks.
  /// An epoch of a few hundred events executes in tens of µs, so an early
  /// finisher usually sees the release within the budget and never pays a
  /// futex sleep + wake; a longer wait (a straggler shard, a descheduled
  /// peer) parks instead of burning its core. A thread parks at once when
  /// there are more threads than hardware threads, or while more than an
  /// eighth of its recent waits outlasted the budget (other processes
  /// compete for the cores).
  static constexpr std::chrono::microseconds kBarrierSpin{50};

  /// Shard index marking a thread outside any shard's execute phase
  /// (setup / main thread).
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  /// Run epochs until no foreground event remains on any shard (the
  /// parallel analog of Scheduler::run). Returns events processed.
  std::size_t run();
  /// Run every event with t <= deadline, then align all shards' clocks on
  /// the deadline (the parallel analog of Scheduler::run_until).
  std::size_t run_until(TimePoint deadline);

  [[nodiscard]] bool running() const { return running_; }
  /// Sum of events processed across shards.
  [[nodiscard]] std::uint64_t events_processed() const;

  // --- protocol self-metrics (pdes.*) ---------------------------------------
  // mailbox_msgs is a pure function of the model. epochs and skip-ahead
  // are deterministic for a given driver but differ between the one-thread
  // and the threaded driver, so compare them only between threaded runs.
  // barrier_wait_ns is wall clock.

  /// Epoch barriers executed so far, plus the one-thread run_until()'s
  /// serial windows (epochs per simulated second bound the win real cores
  /// can deliver).
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  /// Epochs in which at least one shard's adaptive horizon exceeded what
  /// the uniform-L formula would have granted it (serial windows never
  /// count).
  [[nodiscard]] std::uint64_t skip_ahead_epochs() const {
    return skip_ahead_epochs_;
  }
  /// Cross-shard events posted.
  [[nodiscard]] std::uint64_t mailbox_msgs() const;
  /// Wall-clock ns worker threads spent inside epoch barriers, summed over
  /// threads (0 for single-threaded drives). It includes the serial drain
  /// + plan that the last thread to arrive runs as the barrier's completion
  /// step, so it is all of the epoch that is not shard execution.
  /// Machine-dependent — kept out of deterministic artifact diffs.
  [[nodiscard]] std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct CrossEvent {
    TimePoint t = 0;
    std::uint64_t seq = 0;  ///< reserved on the sender's lane
    bool foreground = true;
    EventFn fn;
  };

  /// One (src, dst) channel. Only src's thread appends (execute) and only
  /// the barrier's completion step drains (between epochs), so the
  /// barrier orders every access and no lock is needed.
  using Mailbox = std::vector<CrossEvent>;

  struct Shard {
    std::unique_ptr<Scheduler> sched;
    /// Outbound mailboxes, indexed by destination shard.
    std::vector<Mailbox> outbox;
    TimePoint next = Scheduler::kNoEvent;  ///< after drain, for planning
    /// Dynamic window end during execute: starts at the window's horizon,
    /// shrinks on this shard's own cross-shard posts (the reflection cap).
    /// Only ever touched by the thread executing the shard.
    TimePoint window_cap = 0;
    /// Unbounded grant (every other shard idle): stop once local
    /// foreground work drains instead of spinning on background events.
    bool fg_bounded = false;
    /// Cross-shard events this shard posted (owner-thread counter).
    std::uint64_t posted_msgs = 0;
  };

  void drain(std::size_t k);
  void execute(std::size_t k);
  /// Serial section between the drain and execute phases: computes the
  /// epoch horizons and the stop condition. Returns true to stop.
  bool plan(TimePoint deadline, bool until_mode);
  /// Drains every shard in fixed shard order, then plans. Returns true to
  /// stop.
  bool drain_and_plan(TimePoint deadline, bool until_mode);
  std::size_t drive(TimePoint deadline, bool until_mode);
  /// One-thread run(): the epoch loop without threads.
  void drive_serial();
  /// One-thread run_until(): earliest-shard windows, no epochs.
  void drive_inline(TimePoint deadline);
  void drive_threaded(TimePoint deadline, bool until_mode);

  std::vector<Shard> shards_;
  unsigned threads_ = 1;
  Duration lookahead_ = 1;  ///< min off-diagonal entry (the uniform L)
  /// Inbound lookahead, transposed for plan()'s per-shard scan:
  /// d_in_[dst][src] = closed D[src][dst].
  std::vector<std::vector<Duration>> d_in_;
  ShardHook enter_shard_;
  ShardHook leave_shard_;
  bool running_ = false;
  std::uint64_t epochs_ = 0;
  std::uint64_t skip_ahead_epochs_ = 0;
  std::atomic<std::uint64_t> barrier_wait_ns_{0};
};

}  // namespace pd::sim
