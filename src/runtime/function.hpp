// The function runtime: executes application compute per hop and uses the
// unified I/O library (send/recv, §3.5) to advance the chain without the
// user code ever choosing a transport.
//
// ISSUE 7: an instance can hold pre-provisioned replica cores
// (Cluster::provision_replicas) and vary how many are active; compute jobs
// round-robin across the active replicas, which is what the per-function
// instance autoscaler actuates on its node's SLO/backlog signals.
#pragma once

#include <string>
#include <vector>

#include "mem/descriptor.hpp"
#include "runtime/cluster.hpp"

namespace pd::runtime {

class FunctionInstance {
 public:
  FunctionInstance(WorkerNode& node, FunctionSpec spec, sim::Core& core);

  /// Message delivery entry point (wired into the data plane and the local
  /// sockmap by Cluster::deploy). The instance owns the buffer on entry.
  void on_message(const mem::BufferDescriptor& d);

  // --- replicas (instance autoscaling) -------------------------------------

  /// Pre-provision another core this function may scale onto. New replicas
  /// start inactive; set_active_replicas widens the dispatch set.
  void add_replica(sim::Core& core);
  /// Activate the first `n` provisioned replicas (clamped to
  /// [1, replica_capacity()]). Shrinking never cancels queued jobs — work
  /// already dispatched to a deactivated replica completes there.
  void set_active_replicas(std::size_t n);
  [[nodiscard]] std::size_t active_replicas() const { return active_; }
  [[nodiscard]] std::size_t replica_capacity() const {
    return replicas_.size();
  }
  /// Compute jobs accepted but not yet executed (queued + running across
  /// all replicas) — the instance autoscaler's backlog signal. Reads only
  /// this instance's own counter, so it is safe from the owning shard.
  [[nodiscard]] std::uint64_t pending_jobs() const { return inflight_; }

  [[nodiscard]] const FunctionSpec& spec() const { return spec_; }
  [[nodiscard]] sim::Core& core() { return core_; }
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
  /// Chain hops realized as one-sided state-store ops instead of RPCs
  /// (ISSUE 8), and how many of those fell back to RPC on a denial.
  [[nodiscard]] std::uint64_t store_ops() const { return store_ops_; }
  [[nodiscard]] std::uint64_t store_fallbacks() const {
    return store_fallbacks_;
  }
  /// Total application compute executed (reference ns) — lets harnesses
  /// separate function work from data-plane work in CPU accounting.
  [[nodiscard]] sim::Duration compute_ns_total() const { return compute_total_; }
  [[nodiscard]] mem::Actor actor() const {
    return mem::actor_function(spec_.id);
  }

 private:
  void advance_chain(const mem::BufferDescriptor& d);
  /// ISSUE 8: realize the *next* hop as a one-sided state-store op
  /// (issued from this function's runtime; the state service's CPU never
  /// runs) and resume at the hop after it via store_finish.
  void store_advance(const mem::BufferDescriptor& d);
  void store_finish(const mem::BufferDescriptor& d, bool ok);

  WorkerNode& node_;
  FunctionSpec spec_;
  sim::Core& core_;
  /// Trace span name ("fn:<name>") and track ("node<N>/fn"), built once.
  std::string span_name_;
  std::string track_;
  /// Dispatchable cores; replicas_[0] is the primary (== &core_).
  std::vector<sim::Core*> replicas_;
  std::size_t active_ = 1;
  std::size_t rr_ = 0;          ///< round-robin cursor over active replicas
  std::uint64_t inflight_ = 0;  ///< accepted-not-yet-executed compute jobs
  std::uint64_t invocations_ = 0;
  std::uint64_t store_ops_ = 0;
  std::uint64_t store_fallbacks_ = 0;
  sim::Duration compute_total_ = 0;
};

}  // namespace pd::runtime
