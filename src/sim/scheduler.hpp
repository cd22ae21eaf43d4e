// Deterministic discrete-event scheduler.
//
// A single Scheduler instance drives an entire simulated cluster: every
// node, NIC, DPU core and client shares the same virtual clock. Events at
// equal timestamps fire in insertion order (FIFO tie-break), which makes a
// run fully reproducible for a given seed.
//
// Hot-path layout (DESIGN.md §9):
// - Each callable is built once, in place, in its slot of a chunked slab:
//   fixed-size chunks held by pointer, so a callable never moves between
//   schedule and fire. It runs where it was built, and only then is its
//   slot freed, so nothing the callback schedules can land in that slot.
// - A 4-ary min-heap of 16-byte entries {t, seq << 24 | slot} orders the
//   pending events. The key sits inline, so sifting never dereferences the
//   slab, and seq fills the high bits, so ties still break FIFO. Bounds:
//   2^24 live events per scheduler and 2^40 seqs over its lifetime.
// - Seqs are lane-strided for the parallel driver: shard k of S draws
//   counter·S + k, so seqs of different shards never collide, and a
//   cross-shard event carries a seq reserved on its sender (reserve_seq)
//   into the destination's heap. Same-time order is then fixed when an
//   event is posted, by model data only. A lone scheduler (S = 1) draws
//   1, 2, 3, ...
// - Handles carry a per-slot generation, so cancel() is an O(log n)
//   intrusive heap removal instead of a tombstone in a side map — there is
//   no per-event unordered_map and cancelled entries never linger in the
//   queue.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace pd::sim {

/// Opaque handle for cancelling a scheduled event. Encodes slab slot and
/// generation; a handle for an event that already fired (or was cancelled)
/// goes stale even after the slot is reused.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Scheduler {
 public:
  Scheduler() = default;
  /// Lane `lane` of `lanes` schedulers whose seqs must never collide
  /// (shard `lane` of a ParallelSim).
  Scheduler(std::uint64_t lane, std::uint64_t lanes)
      : next_seq_(lanes + lane), seq_stride_(lanes) {
    PD_CHECK(lane < lanes, "seq lane " << lane << " of " << lanes);
  }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()). `fn` is any
  /// void() callable, built straight into the event's slab slot; an
  /// EventFn (passed with std::move) is relocated there once.
  template <typename F>
  EventId schedule_at(TimePoint t, F&& fn) {
    return schedule(t, std::forward<F>(fn), /*background=*/false,
                    reserve_seq());
  }

  /// Schedule `fn` after `d` nanoseconds of virtual time.
  template <typename F>
  EventId schedule_after(Duration d, F&& fn) {
    PD_CHECK(d >= 0, "negative delay " << d);
    return schedule(now_ + d, std::forward<F>(fn), /*background=*/false,
                    reserve_seq());
  }

  /// Background events (periodic housekeeping: SRQ replenishers, samplers,
  /// autoscaler ticks) do not keep run() alive: run() returns once only
  /// background events remain. They still fire while foreground work is in
  /// flight, and always fire under run_until().
  template <typename F>
  EventId schedule_background_at(TimePoint t, F&& fn) {
    return schedule(t, std::forward<F>(fn), /*background=*/true,
                    reserve_seq());
  }
  template <typename F>
  EventId schedule_background_after(Duration d, F&& fn) {
    PD_CHECK(d >= 0, "negative delay " << d);
    return schedule(now_ + d, std::forward<F>(fn), /*background=*/true,
                    reserve_seq());
  }

  /// Take this scheduler's next seq for an event that will be enqueued on
  /// another scheduler with schedule_reserved (a cross-shard post).
  std::uint64_t reserve_seq() {
    PD_CHECK(next_seq_ < kMaxSeq, "event sequence numbers exhausted");
    const std::uint64_t seq = next_seq_;
    next_seq_ += seq_stride_;
    return seq;
  }

  /// Schedule `fn` at `t` under a seq from another lane's reserve_seq():
  /// it fires among same-time events by that seq, not by arrival here.
  EventId schedule_reserved(TimePoint t, std::uint64_t seq, EventFn&& fn,
                            bool background) {
    return schedule(t, std::move(fn), background, seq);
  }

  /// Cancel a pending event. Returns false if it already fired / was
  /// cancelled / never existed, or is the event now running.
  bool cancel(EventId id);

  /// Sentinel returned by next_event_time() for an empty queue.
  static constexpr TimePoint kNoEvent =
      std::numeric_limits<TimePoint>::max();

  /// Earliest pending timestamp (kNoEvent when the queue is empty). The
  /// parallel driver reads this between epochs to compute the global
  /// lower bound; it never mutates state.
  [[nodiscard]] TimePoint next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_[0].t;
  }

  /// Foreground events scheduled but not yet fired/cancelled. The parallel
  /// driver sums this across shards for its termination check (the
  /// shard-local analog of run()'s stopping condition).
  [[nodiscard]] std::size_t foreground_live() const {
    return foreground_live_;
  }

  /// Process every event with timestamp strictly below `end` (one epoch
  /// window of a conservative parallel run). Does not advance now() past
  /// the last fired event, so the next window may start earlier than
  /// `end`. Returns events processed. The window end may shrink *while the
  /// window runs*: `end` is read afresh before each event, so the parallel
  /// driver can cap the window the moment the shard's own cross-shard send
  /// creates a reflection hazard (adaptive lookahead, DESIGN.md §15). With
  /// `stop_when_fg_idle` the window also ends once no foreground event
  /// remains on this scheduler — the shard-local analog of run()'s stop
  /// condition, used for unbounded grants so self-rescheduling background
  /// events cannot spin forever.
  std::size_t run_window_dynamic(const TimePoint& end, bool stop_when_fg_idle);

  /// Move the clock to `t` without firing anything. Only legal when no
  /// pending event precedes `t` (the parallel driver uses it to align all
  /// shards on a run_until deadline).
  void advance_to(TimePoint t);

  /// Run until the event queue drains. Returns number of events processed.
  std::size_t run();

  /// Run all events with timestamp <= deadline, then advance now() to the
  /// deadline even if the queue still has later events.
  std::size_t run_until(TimePoint deadline);

  /// Process at most `n` events (for step-debugging in tests).
  std::size_t run_steps(std::size_t n);

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffff;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  /// 256 callables per chunk (36 KiB).
  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// Per-slot bookkeeping, kept apart from the callables so sifting
  /// updates a dense array.
  struct Slot {
    std::uint32_t gen = 1;  ///< bumped on free; stales old EventIds
    std::uint32_t heap_pos = kNpos;
    bool background = false;
  };

  struct HeapEntry {
    TimePoint t;
    /// seq << kSlotBits | slot. seq is unique and fills the high bits, so
    /// comparing keys is the FIFO tie-break among equal timestamps.
    std::uint64_t key;

    [[nodiscard]] bool before(const HeapEntry& o) const {
      return t < o.t || (t == o.t && key < o.key);
    }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
  };

  template <typename F>
  EventId schedule(TimePoint t, F&& fn, bool background, std::uint64_t seq) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      PD_CHECK(static_cast<bool>(fn), "null event callback");
    }
    const std::uint32_t slot = acquire_slot(t);
    fn_at(slot).emplace(std::forward<F>(fn));
    return enqueue(t, slot, background, seq);
  }

  EventFn& fn_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  /// A free slot for an event at `t` (checks t >= now()).
  std::uint32_t acquire_slot(TimePoint t);
  /// Push the event already built in `slot` onto the heap under `seq`.
  EventId enqueue(TimePoint t, std::uint32_t slot, bool background,
                  std::uint64_t seq);
  bool pop_one();  // fire the earliest live event; false if queue empty

  /// Move `e` up / down from hole `pos` until the heap property holds.
  void sift_up(std::size_t pos, HeapEntry e);
  void sift_down(std::size_t pos, HeapEntry e);
  /// Detach heap_[pos] from the heap and restore the heap property.
  void heap_remove(std::uint32_t pos);
  void free_slot(std::uint32_t slot);

  /// The slab: callables in fixed-size chunks that never move.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// 4-ary min-heap ordered by (t, key); keys live in the entries.
  std::vector<HeapEntry> heap_;
  std::size_t foreground_live_ = 0;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t seq_stride_ = 1;
  std::uint64_t processed_ = 0;
};

}  // namespace pd::sim
