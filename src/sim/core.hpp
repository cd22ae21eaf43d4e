// Simulated processor cores.
//
// A Core serializes submitted work items FIFO at a configurable speed
// relative to the reference host core (DPU Arm A72 cores run slower, per
// §4.3.1 of the paper). Work is specified in *reference nanoseconds*: the
// time the job would take on a speed-1.0 host core.
//
// A job is one scheduler event at the time the core finishes it: its
// completion callable [core, scaled work, done] is built once, in place, in
// the event's slab slot, and runs there. Completion times are monotone and
// the scheduler breaks ties FIFO, so jobs complete in submission order
// with no queue of their own.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pd::sim {

class Core {
 public:
  Core(Scheduler& sched, std::string name, double speed = 1.0);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Enqueue `ref_work` reference-nanoseconds of work; `done` (any void()
  /// callable, or an EventFn passed with std::move) fires when it completes
  /// (after all previously submitted work).
  template <typename F>
  void submit(Duration ref_work, F&& done) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "EventFn is move-only: pass it with std::move");
      // An EventFn does not fit inside another's inline buffer: box it.
      submit(ref_work, [fn = std::make_unique<EventFn>(std::move(done))] {
        if (*fn) (*fn)();
      });
    } else {
      const Duration scaled = begin_job(ref_work);
      auto job = [this, scaled, done = std::forward<F>(done)]() mutable {
        finish_job(scaled);
        done();
      };
      static_assert(EventFn::kFitsInline<decltype(job)>,
                    "core job callable spills EventFn's inline buffer");
      sched_.schedule_at(free_at_, std::move(job));
    }
  }
  void submit(Duration ref_work) {
    const Duration scaled = begin_job(ref_work);
    sched_.schedule_at(free_at_, [this, scaled] { finish_job(scaled); });
  }

  /// Total busy time accumulated so far (scaled ns, credited at completion).
  [[nodiscard]] Duration busy_ns() const { return busy_ns_; }
  /// Time at which the core becomes idle given current queue.
  [[nodiscard]] TimePoint free_at() const { return free_at_; }
  [[nodiscard]] bool idle() const { return free_at_ <= sched_.now(); }
  /// Queue backlog in scaled nanoseconds (0 when idle).
  [[nodiscard]] Duration backlog() const;
  /// Jobs submitted and not yet completed (running + queued) — the queue
  /// depth the flight recorder samples.
  [[nodiscard]] std::size_t queue_len() const { return queued_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double speed() const { return speed_; }

  /// Mark this core as running a busy-poll loop: it is pinned and 100%
  /// occupied regardless of useful work (DNE / F-stack workers).
  void set_busy_poll(bool v) { busy_poll_ = v; }
  [[nodiscard]] bool busy_poll() const { return busy_poll_; }

  /// Convert reference work to this core's scaled duration (stateless
  /// estimate, truncating fractional ns; submit() itself carries the
  /// fractional remainder across work items so repeated small jobs on a
  /// fractional-speed core don't drift — §4.3.1 DPU time accounting).
  [[nodiscard]] Duration scale(Duration ref_work) const;

 private:
  /// scale() plus the per-core fractional-ns carry (mutates carry state).
  Duration consume_scaled(Duration ref_work);
  /// Queue a job of `ref_work`: moves free_at_ to its completion time and
  /// returns its scaled duration.
  Duration begin_job(Duration ref_work);
  /// Completion bookkeeping, run just before the job's callback.
  void finish_job(Duration scaled) {
    busy_ns_ += scaled;
    --queued_;
  }

  Scheduler& sched_;
  std::string name_;
  double speed_;
  TimePoint free_at_ = 0;
  Duration busy_ns_ = 0;
  /// Fractional nanoseconds not yet charged (always in [0, 1)).
  double scale_carry_ = 0.0;
  bool busy_poll_ = false;
  /// Jobs submitted and not yet completed.
  std::size_t queued_ = 0;
};

/// A pool of identical cores (e.g. the host CPU's cores available to the
/// kernel stack), with least-loaded selection used to model RSS spreading.
class CoreSet {
 public:
  CoreSet(Scheduler& sched, std::string prefix, std::size_t n, double speed = 1.0);

  [[nodiscard]] std::size_t size() const { return cores_.size(); }
  Core& core(std::size_t i) { return *cores_[i]; }
  const Core& core(std::size_t i) const { return *cores_[i]; }
  /// Core that will become free first.
  Core& least_loaded();
  /// Sum of busy_ns over all cores.
  [[nodiscard]] Duration total_busy_ns() const;

 private:
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace pd::sim
