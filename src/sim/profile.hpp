// Exact busy-time attribution hook.
//
// Every Core::submit (and SoC-DMA transfer) reports the scaled busy time it
// charges to an installed BusyObserver, tagged with the thread-current
// ProfileFrame: a (component, detail, tenant) triple established by the
// innermost ProfileScope on the call stack. Because simulated work is
// charged in whole jobs at submit time, summing the reported durations
// reconstructs each core's busy_ns() exactly once the run drains — a
// sampling-free profile with zero statistical error. The one observer is
// obs::Ledger, which folds the charges into its per-frame busy cells.
//
// The observer is a single thread-local pointer, installed per shard by
// the cluster's shard hooks: a null observer makes the hook one predicted
// branch, and installing one can never perturb simulation results —
// observers only record, they never schedule events.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace pd::sim {

/// Attribution frame for busy time. Views must stay valid for the duration
/// of the submit call they annotate (observers copy what they keep).
struct ProfileFrame {
  std::string_view component = "other";  ///< "dne", "fn", "ingress", "ipc"...
  std::string_view detail;               ///< stage or function name
  std::int64_t tenant = -1;              ///< -1 = not tenant-scoped
};

/// Receives one callback per charged busy interval. `resource` is the name
/// of the core (or DMA engine) doing the work. The job was submitted at
/// `submitted`, starts at `begin` (= max(free_at, now), so begin - submitted
/// is the queue wait behind earlier jobs), and occupies the resource for
/// `scaled_ns` of its own nanoseconds. `bytes` is the payload size for
/// byte-denominated resources (DMA), 0 otherwise.
class BusyObserver {
 public:
  virtual ~BusyObserver() = default;
  virtual void on_busy(std::string_view resource, const ProfileFrame& frame,
                       TimePoint submitted, TimePoint begin,
                       Duration scaled_ns, std::uint64_t bytes) = 0;
};

/// This thread's installed observer, or nullptr when no instrument is on.
[[nodiscard]] BusyObserver* busy_observer();

/// Install `o` for THIS thread (parallel shard enter/leave hooks).
BusyObserver* install_thread_busy_observer(BusyObserver* o);

/// The innermost active frame on this thread ("other" when none).
[[nodiscard]] const ProfileFrame& current_profile_frame();

/// RAII frame scope: work submitted while the scope is alive is attributed
/// to (component, detail, tenant). Scopes nest; the previous frame is
/// restored on destruction.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view component,
                        std::string_view detail = {},
                        std::int64_t tenant = -1);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileFrame prev_;
};

}  // namespace pd::sim
