#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace pd::sim {

EventId Scheduler::schedule_impl(TimePoint t, EventFn fn, bool background) {
  PD_CHECK(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  PD_CHECK(static_cast<bool>(fn), "null event callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    PD_CHECK(slot != kNpos, "event slab exhausted");
    slab_.emplace_back();
  }
  Node& n = slab_[slot];
  n.fn = std::move(fn);
  n.background = background;
  n.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  if (!background) ++foreground_live_;
  // slot+1 keeps every valid id distinct from kInvalidEvent.
  return (static_cast<EventId>(n.gen) << 32) | (slot + 1);
}

bool Scheduler::cancel(EventId id) {
  const auto lo = static_cast<std::uint32_t>(id);
  if (lo == 0) return false;
  const std::uint32_t slot = lo - 1;
  if (slot >= slab_.size()) return false;
  Node& n = slab_[slot];
  if (n.heap_pos == kNpos || n.gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;  // already fired, already cancelled, or slot reused
  }
  if (!n.background) --foreground_live_;
  heap_remove(n.heap_pos);
  n.fn = {};  // release captured state eagerly
  free_slot(slot);
  return true;
}

void Scheduler::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entry.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(entry)) break;
    heap_[pos] = heap_[best];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  slab_[heap_[pos].slot].heap_pos = kNpos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    slab_[last.slot].heap_pos = pos;
    sift_down(pos);
    if (slab_[last.slot].heap_pos == pos) sift_up(pos);
  }
}

void Scheduler::free_slot(std::uint32_t slot) {
  ++slab_[slot].gen;
  free_slots_.push_back(slot);
}

bool Scheduler::pop_one() {
  if (heap_.empty()) return false;
  const HeapEntry root = heap_[0];
  Node& n = slab_[root.slot];
  PD_CHECK(root.t >= now_, "event queue went backwards");
  now_ = root.t;
  // Move the callable out before firing: the callback may schedule new
  // events, which can grow the slab and relocate nodes.
  EventFn fn = std::move(n.fn);
  const bool background = n.background;
  heap_remove(0);
  free_slot(root.slot);
  if (!background) --foreground_live_;
  ++processed_;
  fn();
  return true;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (foreground_live_ > 0 && pop_one()) ++n;
  return n;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  PD_CHECK(deadline >= now_, "deadline in the past");
  std::size_t n = 0;
  while (!heap_.empty() && heap_[0].t <= deadline) {
    if (pop_one()) ++n;
  }
  now_ = deadline;
  return n;
}

std::size_t Scheduler::run_window_dynamic(const TimePoint& end,
                                          bool stop_when_fg_idle) {
  std::size_t n = 0;
  // `end` is re-read every iteration: the parallel driver shrinks it
  // mid-window when an event here sends cross-shard (the reflection cap,
  // DESIGN.md §15). The cap only ever shrinks to values above the current
  // event's time, so no already-fired event can violate it.
  while (!heap_.empty() && heap_[0].t < end) {
    if (stop_when_fg_idle && foreground_live_ == 0) break;
    if (pop_one()) ++n;
  }
  return n;
}

void Scheduler::advance_to(TimePoint t) {
  PD_CHECK(t >= now_, "advance_to into the past: t=" << t << " now=" << now_);
  PD_CHECK(heap_.empty() || heap_[0].t >= t,
           "advance_to over a pending event at t=" << heap_[0].t);
  now_ = t;
}

std::size_t Scheduler::run_steps(std::size_t steps) {
  std::size_t n = 0;
  while (n < steps && pop_one()) ++n;
  return n;
}

}  // namespace pd::sim
