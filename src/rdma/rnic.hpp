// RNIC model: the ConnectX-6-class NIC integrated into each Bluefield DPU.
//
// Executes WRs with per-WR processing cost, line-rate DMA (payload bytes
// actually move between the two nodes' buffer pools — the "hardware copy"
// that zero-copy permits), QP-cache thrashing beyond a bounded active set,
// per-tenant shared receive queues, and RNR handling when a tenant's SRQ
// underruns.
//
// Per-WR and per-CQE lookups index tables: QPs by the creation counter in
// their id's low 20 bits, SRQs and RNR queues by tenant, and the network's
// RNICs, datagram handlers and shard pins by node (IdTable).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/id_table.hpp"
#include "fabric/fabric.hpp"
#include "mem/memory_domain.hpp"
#include "rdma/qp.hpp"
#include "rdma/verbs.hpp"
#include "sim/scheduler.hpp"

namespace pd::rdma {

class Rnic;

/// A small unreliable control frame (the simulation analog of a UD
/// datagram): the reliability layer's ACK/NACK path. Datagrams ride the
/// same fabric links as data frames, so an injected link fault loses acks
/// exactly like it loses payloads.
struct Datagram {
  enum class Kind : std::uint8_t { kAck, kNack };
  Kind kind = Kind::kAck;
  std::uint64_t seq = 0;
};

/// Wire size of a control datagram (payload; frame overhead is added by
/// the fabric like for any frame).
inline constexpr Bytes kDatagramBytes = 16;

/// The RDMA fabric: a switch plus the registry mapping node ids to RNICs
/// (the simulation analog of the subnet manager). One per simulated
/// cluster; owning it per-experiment keeps tests isolated.
class RdmaNetwork {
 public:
  explicit RdmaNetwork(sim::Scheduler& sched) : sched_(sched), switch_(sched) {}
  RdmaNetwork(const RdmaNetwork&) = delete;
  RdmaNetwork& operator=(const RdmaNetwork&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] fabric::Switch& fabric() { return switch_; }

  /// Minimum fabric latency between two nodes (per-pair: a cross-leaf pair
  /// pays the spine detour on top of the flat lookahead). Control-plane
  /// posts that bypass Switch::send must respect this, not the flat bound.
  [[nodiscard]] sim::Duration min_path_latency(NodeId from, NodeId to) const {
    return switch_.min_path_latency(from, to);
  }

  /// Pin `node` (its RNIC, fabric port, and every event they schedule) to
  /// a specific scheduler shard. Must run before the node's
  /// Rnic is constructed; unpinned nodes stay on the shared scheduler.
  void set_node_scheduler(NodeId node, sim::Scheduler& sched);
  /// Scheduler owning `node` (the shared scheduler unless pinned).
  [[nodiscard]] sim::Scheduler& scheduler_for(NodeId node);

  /// Run `fn` at absolute simulated time `t` on the shard owning `node`,
  /// through the fabric's delivery hook (fabric::Switch::set_remote_post).
  void post_to_node(NodeId node, sim::TimePoint t, sim::EventFn&& fn) {
    switch_.post(node, t, std::move(fn));
  }

  /// Nodes with a registered RNIC, sorted by id — a deterministic
  /// iteration order for fault plans regardless of hash-map layout.
  [[nodiscard]] std::vector<NodeId> rnic_nodes() const;
  Rnic& rnic(NodeId node);
  [[nodiscard]] bool has_rnic(NodeId node) const {
    return rnic_or_null(node) != nullptr;
  }

  /// Send an unreliable control datagram. Delivery is best-effort: a
  /// down/lossy port silently eats it, and an unregistered handler at
  /// arrival time (receiver crashed) drops it.
  using DatagramHandler = std::function<void(NodeId from, const Datagram&)>;
  void set_datagram_handler(NodeId node, DatagramHandler handler);
  void send_datagram(NodeId from, NodeId to, const Datagram& d);

  /// Fail-stop a node's RDMA attachment: every established/connecting QP
  /// on the node and every peer QP pointing at it transitions to kError
  /// (the peers' RC retry counters exceed while the node is dark).
  void fail_node_qps(NodeId node);

 private:
  friend class Rnic;
  void register_rnic(NodeId node, Rnic* rnic);
  void unregister_rnic(NodeId node);

  sim::Scheduler& sched_;
  fabric::Switch switch_;
  [[nodiscard]] Rnic* rnic_or_null(NodeId node) const {
    Rnic* const* rnic = rnics_.find(node);
    return rnic == nullptr ? nullptr : *rnic;
  }

  /// A destroyed RNIC leaves nullptr (IdTable entries are never removed).
  IdTable<NodeId, Rnic*> rnics_;
  IdTable<NodeId, DatagramHandler> datagram_handlers_;
  IdTable<NodeId, sim::Scheduler*> node_scheds_;
};

struct RnicCounters {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;       ///< one-sided READs initiated from here
  std::uint64_t atomics = 0;     ///< CAS WRs initiated from here
  std::uint64_t fetch_adds = 0;  ///< FAA WRs initiated from here
  std::uint64_t rnr_events = 0;      ///< receiver-not-ready stalls
  std::uint64_t rnr_drops = 0;       ///< arrivals shed at a full RNR queue
  std::uint64_t cache_miss_wrs = 0;  ///< WRs penalized by QP-cache overflow
  std::uint64_t datagrams = 0;       ///< control datagrams sent
  /// Inbound one-sided READ/WRITE rejected by this NIC's MR permission
  /// check (rkey denial; surfaced at the initiator as an error CQE).
  std::uint64_t access_errors = 0;
  /// Inbound CAS/FAA rejected: unmapped atomic word or MR without
  /// kMrRemoteAtomic.
  std::uint64_t atomic_access_errors = 0;
  Bytes payload_bytes = 0;
};

class Rnic {
 public:
  Rnic(RdmaNetwork& net, NodeId node, mem::MemoryDomain& host_mem);
  ~Rnic();

  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  /// Register a tenant pool as an RDMA memory region with the given access
  /// flags (OR of kMr*). Requires the pool to have been exported for RDMA
  /// (doca_mmap_export_rdma, §3.4.2). The default grants full remote
  /// access — Palladium's unified pools are symmetric peers; restrict to
  /// kMrLocal for scratch regions that must never be a one-sided target.
  void register_memory(PoolId pool, std::uint8_t access = kMrRemoteAll);
  [[nodiscard]] bool memory_registered(PoolId pool) const;
  /// Access flags of a registered pool (0 when unregistered/foreign).
  [[nodiscard]] std::uint8_t mr_access(PoolId pool) const;

  /// Create an RC QP owned by `tenant` (not yet connected).
  QueuePair& create_qp(TenantId tenant);
  QueuePair& qp(QpId id);

  /// Post a receive buffer to `tenant`'s shared RQ. Ownership of the buffer
  /// must already be with this RNIC's actor, and its pool registered.
  void post_srq_recv(TenantId tenant, const mem::BufferDescriptor& buffer);
  [[nodiscard]] std::size_t srq_depth(TenantId tenant) const;

  /// Fault injection: empty `tenant`'s SRQ, releasing the posted buffers
  /// back to their pools. Returns the number drained. Arrivals during the
  /// resulting underrun take the RNR path until the replenisher refills.
  std::size_t drain_srq(TenantId tenant);
  /// drain_srq across every tenant with a posted SRQ.
  std::size_t drain_all_srqs();

  /// Observer for fault-injected drains: whoever accounts posted receive
  /// buffers (the engine's ReceiveBufferRegistry) registers here so a drain
  /// shows up as a replenishable deficit instead of a silent leak.
  using DrainListener =
      std::function<void(TenantId, const mem::BufferDescriptor&)>;
  void set_drain_listener(DrainListener listener) {
    drain_listener_ = std::move(listener);
  }

  /// Fault injection: fail every QP on this RNIC that is established or
  /// connecting (optionally only those whose remote is `peer`).
  void fail_qps(NodeId peer = NodeId{});

  /// Node-wide CQ (§3.3: all RCQPs share a single CQ).
  CompletionQueue& cq() { return cq_; }

  /// One-sided write arrival hook: the receiver-side engine registers a
  /// monitor per pool (its FaRM-style canary poller). Without a monitor,
  /// writes land silently — exactly the "receiver-oblivious" property.
  using WriteMonitor =
      std::function<void(const mem::BufferDescriptor&, std::uint32_t len)>;
  void set_write_monitor(PoolId pool, WriteMonitor monitor);

  /// Host-exposed atomic words for remote CAS/FAA (distributed locks,
  /// ownership tokens, version counters). An optional guard pool ties the
  /// word to an MR: remote atomics are then rejected unless that MR grants
  /// kMrRemoteAtomic.
  void set_atomic_word(std::uint64_t addr, std::uint64_t value,
                       PoolId guard = PoolId{});
  [[nodiscard]] std::uint64_t atomic_word(std::uint64_t addr) const;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] RdmaNetwork& network() { return net_; }
  /// The scheduler shard this RNIC's events run on (node-local in sharded
  /// mode, the cluster scheduler otherwise).
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] mem::MemoryDomain& host_mem() { return host_mem_; }
  [[nodiscard]] const RnicCounters& counters() const { return counters_; }
  [[nodiscard]] int active_qps() const { return active_qps_; }

  /// QP census by state — the control-plane churn series the flight
  /// recorder samples (rebuild storms show as an error/connecting bulge).
  struct QpStateCounts {
    std::size_t reset = 0;
    std::size_t connecting = 0;
    std::size_t inactive = 0;
    std::size_t active = 0;
    std::size_t error = 0;
  };
  [[nodiscard]] QpStateCounts qp_state_counts() const;
  /// WRs posted but not yet completion-harvested, summed over every QP
  /// (the node's aggregate send-queue depth).
  [[nodiscard]] int sq_outstanding() const;
  /// Arrivals parked for `tenant` awaiting SRQ buffers (RNR state).
  [[nodiscard]] std::size_t rnr_depth(TenantId tenant) const;

 private:
  friend class QueuePair;
  friend class ConnectionManager;
  friend class RdmaNetwork;
  friend void connect_qps(QueuePair& a, QueuePair& b,
                          std::function<void()> done);

  /// Sender-side execution of a posted WR.
  void execute(QueuePair& qp, const WorkRequest& wr);
  /// Per-WR NIC processing time including QP-cache effects.
  sim::Duration wr_overhead();

  /// Receiver-side arrival paths.
  void arrive_send(QpId dest_qp, TenantId tenant, std::uint32_t len,
                   std::vector<std::byte> payload);
  void deliver_to_srq(QpId dest_qp, TenantId tenant, std::uint32_t len,
                      std::vector<std::byte> payload);
  void deliver_into(mem::BufferDescriptor buffer, QpId dest_qp,
                    TenantId tenant, std::uint32_t len,
                    std::vector<std::byte> payload);
  void arrive_write(NodeId from, QpId from_qp, const WorkRequest& wr,
                    std::uint32_t len, std::vector<std::byte> payload);
  void arrive_read(NodeId from, QpId from_qp, WorkRequest wr);
  void arrive_atomic(NodeId from, QpId from_qp, WorkRequest wr);
  /// READ response landing back at the initiator: DMA the fetched bytes
  /// into the WR's local buffer and raise the success CQE.
  void complete_read(QpId qp_id, const WorkRequest& wr,
                     std::vector<std::byte> payload);
  /// Push a remote-access error CQE at this (initiator) RNIC for a failed
  /// one-sided WR and release the SQ slot.
  void complete_error(QpId qp_id, const WorkRequest& wr, bool outstanding);

  /// Resource-ledger charge for NIC serialization work (ISSUE 10): `ns` of
  /// WR/CQE processing and `bytes` of payload DMA attributed to `tenant`.
  /// One predicted branch when no enabled ledger is installed.
  void ledger_nic(std::int64_t tenant, sim::Duration ns, std::uint64_t bytes);

  sim::Scheduler& sched_;
  RdmaNetwork& net_;
  NodeId node_;
  mem::MemoryDomain& host_mem_;
  CompletionQueue cq_;
  /// Ledger resource and trace track name, e.g. "node1/rnic".
  std::string name_;

  /// A QpId is (node << 20) | creation counter, counting from 1; the QP
  /// with counter c sits at qps_[c - 1].
  static constexpr std::uint32_t kQpCounterSpan = 1u << 20;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  int active_qps_ = 0;

  /// Registered-MR flags, flat-indexed by PoolId value (checked on every
  /// WR post and SRQ post — a hash lookup here shows up in profiles).
  std::vector<char> registered_;
  IdTable<TenantId, std::deque<mem::BufferDescriptor>> srqs_;
  /// Messages that hit an empty SRQ wait here (RNR retry behaviour), at
  /// most cost::kRnrQueueLimit per tenant.
  struct PendingRecv {
    QpId dest_qp;
    std::uint32_t len;
    std::vector<std::byte> payload;
  };
  IdTable<TenantId, std::deque<PendingRecv>> rnr_queues_;

  DrainListener drain_listener_;
  std::unordered_map<PoolId, WriteMonitor> write_monitors_;
  struct AtomicWord {
    std::uint64_t value = 0;
    PoolId guard{};  ///< valid() => remote atomics need kMrRemoteAtomic here
  };
  std::unordered_map<std::uint64_t, AtomicWord> atomic_words_;

  RnicCounters counters_;
};

/// Establish an RC connection between two QPs on different nodes. Costs the
/// connection-setup latency (tens of ms, §3.3); `done` fires when both ends
/// reach kInactive (established, shadow state).
void connect_qps(QueuePair& a, QueuePair& b, std::function<void()> done);

}  // namespace pd::rdma
