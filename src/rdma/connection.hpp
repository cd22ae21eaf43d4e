// RC connection pooling with shadow-QP activation (§3.3).
//
// Establishing an RC connection costs tens of milliseconds, so the DNE
// keeps pools of pre-established connections per peer node. Within a pool,
// QPs toggle between *active* (resident in the RNIC cache) and *inactive*
// (shadow — zero RNIC footprint, reactivated locally without a handshake).
// The manager bounds the node's active-QP count to avoid NIC cache
// thrashing and picks the least-congested active QP per send.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "rdma/rnic.hpp"
#include "sim/random.hpp"

namespace pd::rdma {

struct ConnectionStats {
  std::uint64_t establishments = 0;
  std::uint64_t activations = 0;
  std::uint64_t deactivations = 0;
  std::uint64_t sends = 0;
  std::uint64_t reestablishments = 0;   ///< pools rebuilt after QP errors
  std::uint64_t rebuild_retries = 0;    ///< extra handshake rounds (backoff)
};

class ConnectionManager {
 public:
  /// `max_active`: cap on simultaneously active QPs on this node
  /// (defaults to the RNIC cache capacity).
  explicit ConnectionManager(Rnic& local,
                             int max_active = cost::kRnicQpCacheSlots);

  /// Pre-establish `count` RC connections to `remote` for `tenant`
  /// (creates QPs on both ends; `ready` fires when all are established).
  void establish(NodeId remote, TenantId tenant, int count,
                 std::function<void()> ready);

  /// Number of established connections for (remote, tenant).
  [[nodiscard]] std::size_t pool_size(NodeId remote, TenantId tenant) const;

  /// Post a WR toward `remote` on behalf of `tenant`: selects the
  /// least-congested active QP, transparently reactivating a shadow QP
  /// when none is active (the WR waits out the activation latency).
  void send(NodeId remote, TenantId tenant, const WorkRequest& wr);

  [[nodiscard]] const ConnectionStats& stats() const { return stats_; }
  [[nodiscard]] int active_count() const;

  /// Number of usable (non-error) connections for (remote, tenant).
  [[nodiscard]] std::size_t healthy_count(NodeId remote, TenantId tenant) const;

  /// Pool rebuilds currently in flight (fault recovery in progress).
  [[nodiscard]] std::size_t rebuilds_in_flight() const {
    return rebuilds_.size();
  }
  /// WRs parked waiting on a rebuild or a QP (re)activation — work the
  /// data plane has accepted but the control plane cannot yet carry.
  [[nodiscard]] std::size_t deferred_wrs() const {
    std::size_t total = 0;
    for (const auto& [key, r] : rebuilds_) {
      (void)key;
      total += r.deferred.size();
    }
    for (const auto& [qp, wrs] : pending_) {
      (void)qp;
      total += wrs.size();
    }
    return total;
  }

 private:
  struct PoolKey {
    NodeId remote;
    TenantId tenant;
    bool operator<(const PoolKey& o) const {
      if (remote != o.remote) return remote < o.remote;
      return tenant < o.tenant;
    }
  };

  /// In-flight pool rebuild after every connection errored out. WRs that
  /// arrive meanwhile park in `deferred` and replay (health-checked, via
  /// send()) once a handshake round yields usable connections.
  struct Rebuild {
    std::vector<WorkRequest> deferred;
    int attempt = 0;
    sim::TimePoint started = 0;  ///< first fault detection (for metrics)
  };

  void activate(QueuePair& qp);
  void enforce_active_cap();
  void start_rebuild(PoolKey key, const WorkRequest& wr);
  void run_rebuild(PoolKey key);
  void on_rebuilt(PoolKey key);
  [[nodiscard]] sim::Duration backoff_delay(int attempt);

  RdmaNetwork& net_;
  Rnic& local_;
  int max_active_;
  std::map<PoolKey, std::vector<QueuePair*>> pools_;
  /// WRs buffered while their QP finishes (re)activation.
  std::unordered_map<QpId, std::vector<WorkRequest>> pending_;
  std::map<PoolKey, Rebuild> rebuilds_;
  /// Activation order for LRU-ish deactivation (stamped into each
  /// QueuePair's last_active_).
  std::uint64_t activation_clock_ = 0;
  ConnectionStats stats_;
  /// Fixed-seeded stream for backoff jitter, so runs are reproducible.
  sim::Rng backoff_rng_{0xBACC0FFULL};
};

}  // namespace pd::rdma
