// Deterministic discrete-event scheduler.
//
// A single Scheduler instance drives an entire simulated cluster: every
// node, NIC, DPU core and client shares the same virtual clock. Events at
// equal timestamps fire in insertion order (FIFO tie-break), which makes a
// run fully reproducible for a given seed.
//
// Hot-path layout: pending events live in a slab (reused slots, callable
// constructed in place — no per-event allocation for inline-sized
// callables) and are ordered by a 4-ary min-heap whose entries carry the
// (t, seq) sort key inline, so sifting never dereferences the slab (one
// contiguous array walk instead of a pointer chase per comparison).
// Handles carry a per-slot generation, so cancel() is an O(log n)
// intrusive heap removal instead of a tombstone in a side map — there is
// no per-event unordered_map and cancelled entries never linger in the
// queue.
#pragma once

#include <cstdint>
#include <limits>
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
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimePoint t, EventFn fn) {
    return schedule_impl(t, std::move(fn), /*background=*/false);
  }

  /// Schedule `fn` after `d` nanoseconds of virtual time.
  EventId schedule_after(Duration d, EventFn fn) {
    PD_CHECK(d >= 0, "negative delay " << d);
    return schedule_impl(now_ + d, std::move(fn), /*background=*/false);
  }

  /// Background events (periodic housekeeping: SRQ replenishers, samplers,
  /// autoscaler ticks) do not keep run() alive: run() returns once only
  /// background events remain. They still fire while foreground work is in
  /// flight, and always fire under run_until().
  EventId schedule_background_at(TimePoint t, EventFn fn) {
    return schedule_impl(t, std::move(fn), /*background=*/true);
  }
  EventId schedule_background_after(Duration d, EventFn fn) {
    PD_CHECK(d >= 0, "negative delay " << d);
    return schedule_impl(now_ + d, std::move(fn), /*background=*/true);
  }

  /// Cancel a pending event. Returns false if it already fired / was
  /// cancelled / never existed.
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

  struct Node {
    EventFn fn;
    std::uint32_t gen = 1;        ///< bumped on free; stales old EventIds
    std::uint32_t heap_pos = kNpos;
    bool background = false;
  };

  struct HeapEntry {
    TimePoint t;
    std::uint64_t seq;  ///< FIFO tie-break among equal timestamps
    std::uint32_t slot;

    [[nodiscard]] bool before(const HeapEntry& o) const {
      if (t != o.t) return t < o.t;
      return seq < o.seq;
    }
  };

  EventId schedule_impl(TimePoint t, EventFn fn, bool background);
  bool pop_one();  // fire the earliest live event; false if queue empty

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Detach heap_[pos] from the heap and restore the heap property.
  void heap_remove(std::uint32_t pos);
  void free_slot(std::uint32_t slot);

  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// 4-ary min-heap ordered by (t, seq); keys live in the entries.
  std::vector<HeapEntry> heap_;
  std::size_t foreground_live_ = 0;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
};

}  // namespace pd::sim
