#include "rdma/connection.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "obs/hub.hpp"

namespace pd::rdma {
namespace {

/// Retry cadence when a send races an externally-driven handshake (initial
/// establish still in flight) — just poll again shortly after.
constexpr sim::Duration kConnectingPollNs = 50'000;

/// Exponential backoff for pool re-establishment after faults: delays are
/// kBackoffBaseNs * 2^attempt capped at kBackoffCapNs, each scaled by a
/// jitter factor uniform in [0.5, 1.5) from a dedicated deterministic
/// stream.
constexpr sim::Duration kBackoffBaseNs = 200'000;    ///< 0.2 ms, 2nd attempt
constexpr sim::Duration kBackoffCapNs = 20'000'000;  ///< 20 ms ceiling

}  // namespace

ConnectionManager::ConnectionManager(Rnic& local, int max_active)
    : net_(local.network()), local_(local), max_active_(max_active) {
  PD_CHECK(max_active_ > 0, "active-QP cap must be positive");
}

void ConnectionManager::establish(NodeId remote, TenantId tenant, int count,
                                  std::function<void()> ready) {
  PD_CHECK(count > 0, "establish needs at least one connection");
  auto remaining = std::make_shared<int>(count);
  auto done = std::make_shared<std::function<void()>>(std::move(ready));

  // Split handshake: the peer's QP must be created and finalized on the
  // peer's own shard, so the request and the answering QP id travel
  // through post_to_node (one lookahead hop each way; a plain local
  // schedule when both nodes share a shard). Both ends finalize at
  // t0 + kRcConnectNs — the two sub-microsecond hops vanish under the
  // tens-of-ms handshake cost.
  const sim::TimePoint t0 = local_.scheduler().now();
  // Per-pair: a cross-leaf peer is a longer hop, and the PDES lookahead
  // matrix rejects posts faster than the pair's minimum path latency.
  const sim::Duration hop = net_.min_path_latency(local_.node(), remote);
  Rnic* origin = &local_;
  Rnic* peer = &net_.rnic(remote);
  for (int i = 0; i < count; ++i) {
    QueuePair& a = local_.create_qp(tenant);
    a.remote_node_ = remote;
    a.state_ = QpState::kConnecting;
    pools_[PoolKey{remote, tenant}].push_back(&a);
    ++stats_.establishments;
    net_.post_to_node(remote, t0 + hop, [this, origin, peer, tenant, t0, hop,
                                         a_id = a.id(), remaining, done] {
      QueuePair& b = peer->create_qp(tenant);
      b.remote_node_ = origin->node();
      b.remote_qp_ = a_id;
      b.state_ = QpState::kConnecting;
      peer->scheduler().schedule_at(t0 + cost::kRcConnectNs, [&b] {
        if (b.state_ == QpState::kConnecting) b.state_ = QpState::kInactive;
      });
      net_.post_to_node(
          origin->node(), t0 + 2 * hop,
          [origin, a_id, b_id = b.id(), t0, remaining, done] {
            QueuePair& a = origin->qp(a_id);
            a.remote_qp_ = b_id;
            origin->scheduler().schedule_at(
                t0 + cost::kRcConnectNs, [&a, remaining, done] {
                  if (a.state_ == QpState::kConnecting) {
                    a.state_ = QpState::kInactive;
                  }
                  if (--*remaining == 0 && *done) (*done)();
                });
          });
    });
  }
}

std::size_t ConnectionManager::pool_size(NodeId remote, TenantId tenant) const {
  auto it = pools_.find(PoolKey{remote, tenant});
  return it == pools_.end() ? 0 : it->second.size();
}

std::size_t ConnectionManager::healthy_count(NodeId remote,
                                             TenantId tenant) const {
  auto it = pools_.find(PoolKey{remote, tenant});
  if (it == pools_.end()) return 0;
  std::size_t n = 0;
  for (const QueuePair* qp : it->second) {
    if (qp->state() != QpState::kError) ++n;
  }
  return n;
}

int ConnectionManager::active_count() const { return local_.active_qps(); }

void ConnectionManager::send(NodeId remote, TenantId tenant,
                             const WorkRequest& wr) {
  const PoolKey key{remote, tenant};
  auto it = pools_.find(key);
  PD_CHECK(it != pools_.end() && !it->second.empty(),
           "no RC connections to node " << remote << " for tenant " << tenant);
  auto& pool = it->second;
  ++stats_.sends;

  // Pool rebuild in flight after a fault: park the WR; it replays through
  // send() (and thus a fresh health check) once the rebuild lands.
  if (auto rb = rebuilds_.find(key); rb != rebuilds_.end()) {
    rb->second.deferred.push_back(wr);
    return;
  }

  // Least-congested active QP (§3.2 TX stage).
  QueuePair* best_active = nullptr;
  for (QueuePair* qp : pool) {
    if (qp->state() == QpState::kActive &&
        (best_active == nullptr || qp->outstanding() < best_active->outstanding())) {
      best_active = qp;
    }
  }
  if (best_active != nullptr) {
    best_active->last_active_ = ++activation_clock_;
    best_active->post_send(wr);
    return;
  }

  // A (healthy) QP already mid-activation? Queue behind it.
  for (QueuePair* qp : pool) {
    if (qp->state() == QpState::kError) continue;
    auto pending = pending_.find(qp->id());
    if (pending != pending_.end()) {
      pending->second.push_back(wr);
      return;
    }
  }

  // Reactivate a shadow QP.
  QueuePair* shadow = nullptr;
  bool connecting = false;
  for (QueuePair* qp : pool) {
    if (qp->state() == QpState::kInactive) {
      shadow = qp;
      break;
    }
    if (qp->state() == QpState::kConnecting) connecting = true;
  }
  if (shadow != nullptr) {
    pending_[shadow->id()].push_back(wr);
    activate(*shadow);
    return;
  }
  if (connecting) {
    // An externally-driven handshake (initial establish) is still in
    // flight; retry once it has had a chance to land.
    local_.scheduler().schedule_after(kConnectingPollNs, [this, remote, tenant,
                                                          wr] {
      send(remote, tenant, wr);
    });
    return;
  }

  // Every connection in the pool is broken (fabric fault / remote QP
  // errors): rebuild the pool with backoff and park the WR behind it.
  start_rebuild(key, wr);
}

void ConnectionManager::start_rebuild(PoolKey key, const WorkRequest& wr) {
  ++stats_.reestablishments;
  Rebuild& rb = rebuilds_[key];
  rb.deferred.push_back(wr);
  rb.started = local_.scheduler().now();
  run_rebuild(key);
}

sim::Duration ConnectionManager::backoff_delay(int attempt) {
  sim::Duration d = kBackoffBaseNs;
  for (int i = 1; i < attempt && d < kBackoffCapNs; ++i) d *= 2;
  d = std::min(d, kBackoffCapNs);
  // Jitter in [0.5, 1.5): desynchronizes the retry storms that lock-step
  // backoff produces after a correlated fault.
  return static_cast<sim::Duration>(
      static_cast<double>(d) * (0.5 + backoff_rng_.next_double()));
}

void ConnectionManager::run_rebuild(PoolKey key) {
  auto& pool = pools_[key];
  // Drop the broken QPs from the pool (the RNIC still owns the objects;
  // in-flight completions on them drain harmlessly) so the pool does not
  // grow without bound across rebuild cycles. Each broken connection is
  // replaced one-for-one.
  const std::size_t before = pool.size();
  std::erase_if(pool, [](const QueuePair* qp) {
    return qp->state() == QpState::kError;
  });
  const int count = std::max<int>(1, static_cast<int>(before - pool.size()));
  establish(key.remote, key.tenant, count, [this, key] { on_rebuilt(key); });
}

void ConnectionManager::on_rebuilt(PoolKey key) {
  auto it = rebuilds_.find(key);
  if (it == rebuilds_.end()) return;
  Rebuild& rb = it->second;
  if (healthy_count(key.remote, key.tenant) == 0) {
    // A second fault landed during the handshake itself; retry with
    // exponential backoff + jitter rather than hammering the peer.
    ++rb.attempt;
    ++stats_.rebuild_retries;
    local_.scheduler().schedule_after(backoff_delay(rb.attempt),
                                      [this, key] { run_rebuild(key); });
    return;
  }
  if (auto* h = obs::hub()) {
    h->registry
        .histogram("conn.qp_reestablish_ns",
                   "node=" + std::to_string(local_.node().value()))
        .record(local_.scheduler().now() - rb.started);
  }
  auto wrs = std::move(rb.deferred);
  rebuilds_.erase(it);
  // Replay through send(): each WR re-runs QP selection against the fresh
  // pool (never blindly into a QP that may have errored again).
  for (const auto& wr : wrs) send(key.remote, key.tenant, wr);
}

void ConnectionManager::activate(QueuePair& qp) {
  ++stats_.activations;
  qp.activate([this, &qp] {
    std::vector<WorkRequest> wrs;
    if (auto it = pending_.find(qp.id()); it != pending_.end()) {
      wrs = std::move(it->second);
      pending_.erase(it);
    }
    if (qp.state() != QpState::kActive) {
      // A fault broke the QP while activation was in flight. Re-route the
      // deferred WRs through send() instead of replaying into an error QP.
      for (const auto& wr : wrs) send(qp.remote_node(), qp.tenant(), wr);
      return;
    }
    qp.last_active_ = ++activation_clock_;
    enforce_active_cap();
    for (const auto& wr : wrs) qp.post_send(wr);
  });
}

void ConnectionManager::enforce_active_cap() {
  while (local_.active_qps_ > max_active_) {
    // Deactivate the least-recently-used idle active QP.
    QueuePair* victim = nullptr;
    std::uint64_t oldest = activation_clock_ + 1;
    for (auto& [key, pool] : pools_) {
      for (QueuePair* qp : pool) {
        if (qp->state() == QpState::kActive && qp->outstanding() == 0 &&
            qp->last_active_ < oldest) {
          oldest = qp->last_active_;
          victim = qp;
        }
      }
    }
    if (victim == nullptr) return;  // everything busy: accept cache misses
    victim->deactivate();
    ++stats_.deactivations;
  }
}

}  // namespace pd::rdma
