// Reliable-Connected queue pairs with shadow (active/inactive) states.
//
// Palladium keeps a pool of established RC connections per peer node and
// activates/deactivates them with the "shadow QP" mechanism of RoGUE [52]:
// an inactive QP consumes no RNIC resources and reactivation needs no
// cross-node handshake (§3.3).
#pragma once

#include <cstdint>
#include <functional>

#include "common/ids.hpp"
#include "rdma/verbs.hpp"

namespace pd::rdma {

class Rnic;

enum class QpState : std::uint8_t {
  kReset,      ///< created, not yet connected
  kConnecting, ///< RC handshake in flight (tens of ms)
  kInactive,   ///< established, shadow state: zero RNIC footprint
  kActive,     ///< established, resident in the RNIC cache
  kError,      ///< broken (retry-exceeded / fabric fault); needs re-setup
};

const char* to_string(QpState s);

class QueuePair {
 public:
  QueuePair(Rnic& rnic, QpId id, TenantId tenant);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Post a WR to the send queue. The QP must be kActive. Outstanding count
  /// rises until the send completion is harvested.
  void post_send(const WorkRequest& wr);

  /// Reactivate a shadow QP: kInactive -> kActive after the local
  /// activation latency (no cross-node handshake). `done` may be null.
  void activate(std::function<void()> done);
  /// kActive -> kInactive, releasing the QP's RNIC-cache residency.
  void deactivate();

  /// Fault injection: transition to kError (e.g. RC retry counter
  /// exceeded). Already-posted WRs complete; new posts are rejected until
  /// the connection manager re-establishes a replacement.
  void fail();

  [[nodiscard]] QpId id() const { return id_; }
  [[nodiscard]] TenantId tenant() const { return tenant_; }
  [[nodiscard]] QpState state() const { return state_; }
  [[nodiscard]] bool connected() const {
    return state_ == QpState::kActive || state_ == QpState::kInactive;
  }
  [[nodiscard]] NodeId remote_node() const { return remote_node_; }
  [[nodiscard]] QpId remote_qp() const { return remote_qp_; }
  /// WRs posted but not yet completed — the DNE's congestion signal for
  /// least-congested QP selection (§3.2).
  [[nodiscard]] int outstanding() const { return outstanding_; }

 private:
  friend class Rnic;
  friend class ConnectionManager;
  friend void connect_qps(QueuePair& a, QueuePair& b,
                          std::function<void()> done);

  Rnic& rnic_;
  QpId id_;
  TenantId tenant_;
  QpState state_ = QpState::kReset;
  NodeId remote_node_{};
  QpId remote_qp_{};
  int outstanding_ = 0;
  /// ConnectionManager's use stamp for least-recently-used deactivation
  /// (0 = never used).
  std::uint64_t last_active_ = 0;
};

}  // namespace pd::rdma
