#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace pd::sim {

std::uint32_t Scheduler::acquire_slot(TimePoint t) {
  PD_CHECK(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  PD_CHECK(slot <= kSlotMask,
           "more than " << kSlotMask + 1 << " live events on one scheduler");
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<EventFn[]>(std::size_t{1} << kChunkBits));
  }
  slots_.emplace_back();
  return slot;
}

EventId Scheduler::enqueue(TimePoint t, std::uint32_t slot, bool background,
                           std::uint64_t seq) {
  Slot& s = slots_[slot];
  s.background = background;
  const HeapEntry e{t, seq << kSlotBits | slot};
  heap_.push_back(e);
  sift_up(heap_.size() - 1, e);
  if (!background) ++foreground_live_;
  // slot+1 keeps every valid id distinct from kInvalidEvent.
  return (static_cast<EventId>(s.gen) << 32) | (slot + 1);
}

bool Scheduler::cancel(EventId id) {
  const auto lo = static_cast<std::uint32_t>(id);
  if (lo == 0) return false;
  const std::uint32_t slot = lo - 1;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.heap_pos == kNpos || s.gen != static_cast<std::uint32_t>(id >> 32)) {
    // Already fired, already cancelled, slot reused, or the event is the
    // one running right now.
    return false;
  }
  if (!s.background) --foreground_live_;
  heap_remove(s.heap_pos);
  fn_at(slot).reset();  // release captured state eagerly
  free_slot(slot);
  return true;
}

void Scheduler::sift_up(std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    const HeapEntry p = heap_[parent];
    if (!e.before(p)) break;
    heap_[pos] = p;
    slots_[p.slot()].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e.slot()].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::sift_down(std::size_t pos, HeapEntry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    HeapEntry b = heap_[first];
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(b)) {
        best = c;
        b = heap_[c];
      }
    }
    if (!b.before(e)) break;
    heap_[pos] = b;
    slots_[b.slot()].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slots_[e.slot()].heap_pos = static_cast<std::uint32_t>(pos);
}

void Scheduler::heap_remove(std::uint32_t pos) {
  slots_[heap_[pos].slot()].heap_pos = kNpos;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && last.before(heap_[(pos - 1) / 4])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Scheduler::free_slot(std::uint32_t slot) {
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
}

bool Scheduler::pop_one() {
  if (heap_.empty()) return false;
  const HeapEntry root = heap_[0];
  const std::uint32_t slot = root.slot();
  PD_CHECK(root.t >= now_, "event queue went backwards");
  now_ = root.t;
  heap_remove(0);
  if (!slots_[slot].background) --foreground_live_;
  ++processed_;
  // Run the callable where it was built. Chunks never move, and the slot
  // goes back on the free list only after the callback returns, so nothing
  // the callback schedules can reuse it, and its own id cannot cancel it
  // (heap_pos is already kNpos).
  EventFn& fn = fn_at(slot);
  fn();
  fn.reset();
  free_slot(slot);
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
