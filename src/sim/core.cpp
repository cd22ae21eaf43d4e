#include "sim/core.hpp"

#include <algorithm>

#include "sim/profile.hpp"

namespace pd::sim {

Core::Core(Scheduler& sched, std::string name, double speed)
    : sched_(sched), name_(std::move(name)), speed_(speed) {
  PD_CHECK(speed_ > 0.0, "core speed must be positive");
}

Duration Core::scale(Duration ref_work) const {
  PD_CHECK(ref_work >= 0, "negative work");
  if (ref_work == 0) return 0;
  const auto scaled =
      static_cast<Duration>(static_cast<double>(ref_work) / speed_);
  return std::max<Duration>(scaled, 1);
}

Duration Core::consume_scaled(Duration ref_work) {
  PD_CHECK(ref_work >= 0, "negative work");
  if (ref_work == 0) return 0;
  const double ideal =
      static_cast<double>(ref_work) / speed_ + scale_carry_;
  auto scaled = static_cast<Duration>(ideal);
  scale_carry_ = ideal - static_cast<double>(scaled);
  if (scaled == 0) {
    // Positive work always costs at least 1 ns (and the carry is dropped so
    // very fast cores keep the pre-existing overcharge rather than banking
    // negative time).
    scaled = 1;
    scale_carry_ = 0.0;
  }
  return scaled;
}

Duration Core::backlog() const {
  return std::max<Duration>(0, free_at_ - sched_.now());
}

Duration Core::begin_job(Duration ref_work) {
  const Duration scaled = consume_scaled(ref_work);
  const TimePoint now = sched_.now();
  const TimePoint begin = std::max(free_at_, now);
  if (BusyObserver* o = busy_observer()) {
    o->on_busy(name_, current_profile_frame(), now, begin, scaled, 0);
  }
  free_at_ = begin + scaled;
  ++queued_;
  return scaled;
}

CoreSet::CoreSet(Scheduler& sched, std::string prefix, std::size_t n,
                 double speed) {
  PD_CHECK(n > 0, "empty core set");
  cores_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cores_.push_back(
        std::make_unique<Core>(sched, prefix + "/" + std::to_string(i), speed));
  }
}

Core& CoreSet::least_loaded() {
  Core* best = cores_.front().get();
  for (auto& c : cores_) {
    if (c->free_at() < best->free_at()) best = c.get();
  }
  return *best;
}

Duration CoreSet::total_busy_ns() const {
  Duration total = 0;
  for (const auto& c : cores_) total += c->busy_ns();
  return total;
}

}  // namespace pd::sim
