// Simulated processor cores.
//
// A Core serializes submitted work items FIFO at a configurable speed
// relative to the reference host core (DPU Arm A72 cores run slower, per
// §4.3.1 of the paper). Work is specified in *reference nanoseconds*: the
// time the job would take on a speed-1.0 host core.
//
// A job's completion callback is built once, in place, in its slot of the
// core's FIFO ring, and moved out exactly once when the job completes (the
// callback may submit more jobs and grow the ring while it runs).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/fifo_ring.hpp"
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
    push_job(ref_work).emplace(std::forward<F>(done));
  }
  void submit(Duration ref_work) { push_job(ref_work); }

  /// Total busy time accumulated so far (scaled ns, credited at completion).
  [[nodiscard]] Duration busy_ns() const { return busy_ns_; }
  /// Time at which the core becomes idle given current queue.
  [[nodiscard]] TimePoint free_at() const { return free_at_; }
  [[nodiscard]] bool idle() const { return free_at_ <= sched_.now(); }
  /// Queue backlog in scaled nanoseconds (0 when idle).
  [[nodiscard]] Duration backlog() const;
  /// Jobs in the core's FIFO ring (running + queued) — the ring occupancy
  /// the flight recorder samples.
  [[nodiscard]] std::size_t queue_len() const { return jobs_.size(); }
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
  struct Job {
    // User-provided, or each `Job{}` FifoRing resets a slot to would
    // zero `done`'s inline buffer (sim/event_fn.hpp).
    Job() noexcept {}
    Duration scaled = 0;
    EventFn done;
  };

  /// scale() plus the per-core fractional-ns carry (mutates carry state).
  Duration consume_scaled(Duration ref_work);
  /// Queue a job of `ref_work` and schedule its completion; returns the
  /// job's (empty) callback slot for submit() to build `done` in.
  EventFn& push_job(Duration ref_work);
  void complete_front();

  Scheduler& sched_;
  std::string name_;
  double speed_;
  TimePoint free_at_ = 0;
  Duration busy_ns_ = 0;
  /// Fractional nanoseconds not yet charged (always in [0, 1)).
  double scale_carry_ = 0.0;
  bool busy_poll_ = false;
  /// In-flight work in completion (FIFO) order.
  FifoRing<Job> jobs_;
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
