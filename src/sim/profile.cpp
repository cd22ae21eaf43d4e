#include "sim/profile.hpp"

namespace pd::sim {

namespace {
thread_local BusyObserver* tl_observer = nullptr;
thread_local ProfileFrame tl_frame{};
}  // namespace

BusyObserver* busy_observer() { return tl_observer; }

BusyObserver* install_thread_busy_observer(BusyObserver* o) {
  BusyObserver* prev = tl_observer;
  tl_observer = o;
  return prev;
}

const ProfileFrame& current_profile_frame() { return tl_frame; }

ProfileScope::ProfileScope(std::string_view component, std::string_view detail,
                           std::int64_t tenant)
    : prev_(tl_frame) {
  tl_frame = ProfileFrame{component, detail, tenant};
}

ProfileScope::~ProfileScope() { tl_frame = prev_; }

}  // namespace pd::sim
