#include "rdma/rnic.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "core/trace_hooks.hpp"
#include "obs/hub.hpp"
#include "proto/cost_model.hpp"
#include "sim/profile.hpp"

namespace pd::rdma {
namespace {

/// RNR retry delay once the receiver reposts buffers (abbreviated from the
/// IB RNR-NAK timer range).
constexpr sim::Duration kRnrRetryNs = 5'000;
/// Bytes on the wire for a CAS request/response.
constexpr Bytes kAtomicWireBytes = 32;

}  // namespace

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kSend: return "SEND";
    case Opcode::kWrite: return "WRITE";
    case Opcode::kRead: return "READ";
    case Opcode::kCompareSwap: return "CAS";
    case Opcode::kFetchAdd: return "FAA";
  }
  return "?";
}

const char* to_string(CompletionStatus s) {
  switch (s) {
    case CompletionStatus::kSuccess: return "success";
    case CompletionStatus::kRemoteAccessError: return "remote-access-error";
  }
  return "?";
}

const char* to_string(QpState s) {
  switch (s) {
    case QpState::kReset: return "reset";
    case QpState::kConnecting: return "connecting";
    case QpState::kInactive: return "inactive";
    case QpState::kActive: return "active";
    case QpState::kError: return "error";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

void CompletionQueue::push(Completion c) {
  const bool was_empty = entries_.empty();
  entries_.push_back(std::move(c));
  ++total_;
  if (was_empty && notify_) notify_();
}

std::vector<Completion> CompletionQueue::poll(std::size_t max) {
  std::vector<Completion> out;
  poll_into(out, max);
  return out;
}

std::size_t CompletionQueue::poll_into(std::vector<Completion>& out,
                                       std::size_t max) {
  out.clear();
  const std::size_t n = std::min(max, entries_.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(entries_.front()));
    entries_.pop_front();
  }
  return n;
}

// ---------------------------------------------------------------------------
// RdmaNetwork
// ---------------------------------------------------------------------------

Rnic& RdmaNetwork::rnic(NodeId node) {
  Rnic* rnic = rnic_or_null(node);
  PD_CHECK(rnic != nullptr, "no RNIC on node " << node);
  return *rnic;
}

void RdmaNetwork::set_node_scheduler(NodeId node, sim::Scheduler& sched) {
  PD_CHECK(!has_rnic(node),
           "pin node " << node << " to a shard before creating its RNIC");
  node_scheds_[node] = &sched;
}

sim::Scheduler& RdmaNetwork::scheduler_for(NodeId node) {
  sim::Scheduler* const* sched = node_scheds_.find(node);
  return sched == nullptr ? sched_ : **sched;
}

std::vector<NodeId> RdmaNetwork::rnic_nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(rnics_.size());
  rnics_.for_each([&](NodeId id, Rnic* rnic) {
    if (rnic != nullptr) nodes.push_back(id);
  });
  std::sort(nodes.begin(), nodes.end(),
            [](NodeId a, NodeId b) { return a.value() < b.value(); });
  return nodes;
}

void RdmaNetwork::register_rnic(NodeId node, Rnic* rnic) {
  PD_CHECK(!has_rnic(node), "node " << node << " already has an RNIC");
  rnics_[node] = rnic;
  switch_.attach(node, scheduler_for(node));
}

void RdmaNetwork::unregister_rnic(NodeId node) {
  rnics_[node] = nullptr;
  datagram_handlers_[node] = nullptr;
}

void RdmaNetwork::set_datagram_handler(NodeId node, DatagramHandler handler) {
  datagram_handlers_[node] = std::move(handler);
}

void RdmaNetwork::send_datagram(NodeId from, NodeId to, const Datagram& d) {
  PD_CHECK(switch_.attached(from) && switch_.attached(to),
           "datagram between unattached nodes " << from << " -> " << to);
  if (Rnic* rnic = rnic_or_null(from)) ++rnic->counters_.datagrams;
  switch_.send(from, to, kDatagramBytes, [this, from, to, d] {
    DatagramHandler* handler = datagram_handlers_.find(to);
    if (handler != nullptr && *handler) (*handler)(from, d);
  });
}

void RdmaNetwork::fail_node_qps(NodeId node) {
  rnics_.for_each([node](NodeId id, Rnic* rnic) {
    if (rnic == nullptr) return;
    if (id == node) {
      rnic->fail_qps();
    } else {
      rnic->fail_qps(node);
    }
  });
}

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

QueuePair::QueuePair(Rnic& rnic, QpId id, TenantId tenant)
    : rnic_(rnic), id_(id), tenant_(tenant) {}

void QueuePair::post_send(const WorkRequest& wr) {
  PD_CHECK(state_ == QpState::kActive,
           "post_send on QP " << id_ << " in state " << to_string(state_));
  ++outstanding_;
  rnic_.execute(*this, wr);
}

void QueuePair::activate(std::function<void()> done) {
  PD_CHECK(state_ == QpState::kInactive,
           "activate QP in state " << to_string(state_));
  rnic_.sched_.schedule_after(cost::kQpActivateNs,
                              [this, done = std::move(done)] {
                                // A fault may have broken the QP while the
                                // activation was in flight; don't resurrect
                                // it. `done` still fires so the connection
                                // manager can notice and recover.
                                if (state_ == QpState::kInactive) {
                                  state_ = QpState::kActive;
                                  ++rnic_.active_qps_;
                                }
                                if (done) done();
                              });
}

void QueuePair::deactivate() {
  PD_CHECK(state_ == QpState::kActive,
           "deactivate QP in state " << to_string(state_));
  PD_CHECK(outstanding_ == 0, "deactivate QP with outstanding WRs");
  state_ = QpState::kInactive;
  --rnic_.active_qps_;
}

void QueuePair::fail() {
  PD_CHECK(connected() || state_ == QpState::kConnecting,
           "fail() on a QP that was never set up");
  if (state_ == QpState::kActive) --rnic_.active_qps_;
  state_ = QpState::kError;
}

// ---------------------------------------------------------------------------
// Rnic
// ---------------------------------------------------------------------------

Rnic::Rnic(RdmaNetwork& net, NodeId node, mem::MemoryDomain& host_mem)
    : sched_(net.scheduler_for(node)), net_(net), node_(node),
      host_mem_(host_mem),
      name_("node" + std::to_string(node.value()) + "/rnic") {
  net_.register_rnic(node, this);
}

void Rnic::ledger_nic(std::int64_t tenant, sim::Duration ns,
                      std::uint64_t bytes) {
  auto* h = obs::hub();
  if (h == nullptr || !h->ledger.enabled()) return;
  const sim::TimePoint now = sched_.now();
  h->ledger.occupy(obs::LedgerKind::kNic, name_, tenant, now, now + ns);
  if (bytes > 0) {
    h->ledger.add_bytes(obs::LedgerKind::kNic, name_, tenant, bytes);
  }
}

Rnic::~Rnic() { net_.unregister_rnic(node_); }

// PoolId layout is (node << 16) | creation-order counter starting at 1
// (see MemoryDomain::create_pool), so registered_ is indexed by the dense
// low-half counter only — indexing by the full value would allocate
// node.value()*64KiB of flag bytes per RNIC for nothing.
void Rnic::register_memory(PoolId pool, std::uint8_t access) {
  auto& tm = host_mem_.by_pool(pool);
  PD_CHECK(tm.exported_to_rdma(),
           "pool " << pool << " not exported for RDMA before registration");
  PD_CHECK(access != 0, "MR registration needs at least one access flag");
  const std::uint32_t idx = (pool.value() & 0xffff) - 1;
  if (registered_.size() <= idx) registered_.resize(idx + 1);
  registered_[idx] = static_cast<char>(access);
}

bool Rnic::memory_registered(PoolId pool) const {
  if ((pool.value() >> 16) != node_.value()) return false;
  const std::uint32_t idx = (pool.value() & 0xffff) - 1;
  return idx < registered_.size() && registered_[idx] != 0;
}

std::uint8_t Rnic::mr_access(PoolId pool) const {
  if ((pool.value() >> 16) != node_.value()) return 0;
  const std::uint32_t idx = (pool.value() & 0xffff) - 1;
  return idx < registered_.size() ? static_cast<std::uint8_t>(registered_[idx])
                                  : 0;
}

QueuePair& Rnic::create_qp(TenantId tenant) {
  const auto counter = static_cast<std::uint32_t>(qps_.size() + 1);
  PD_CHECK(counter < kQpCounterSpan, "QP counter exhausted on node " << node_);
  const QpId id{(node_.value() << 20) | counter};
  qps_.push_back(std::make_unique<QueuePair>(*this, id, tenant));
  return *qps_.back();
}

QueuePair& Rnic::qp(QpId id) {
  const std::size_t idx = (id.value() & (kQpCounterSpan - 1)) - 1;
  PD_CHECK(idx < qps_.size() && qps_[idx]->id() == id,
           "unknown QP " << id << " on node " << node_);
  return *qps_[idx];
}

void Rnic::post_srq_recv(TenantId tenant, const mem::BufferDescriptor& buffer) {
  PD_CHECK(memory_registered(buffer.pool),
           "SRQ buffer from unregistered pool " << buffer.pool);
  PD_CHECK(buffer.tenant == tenant, "SRQ buffer tenant mismatch");
  auto& pool = host_mem_.by_pool(buffer.pool).pool();
  PD_CHECK(pool.owner_of(buffer) == mem::actor_rnic(node_),
           "SRQ buffer not owned by the RNIC (transfer before posting)");

  auto& rnr = rnr_queues_[tenant];
  if (!rnr.empty()) {
    // A sender is waiting in RNR state: reserve THIS buffer for it (if it
    // went through the SRQ, a concurrent arrival could steal it before the
    // retry timer fires) and deliver after the retry delay.
    PendingRecv pending = std::move(rnr.front());
    rnr.pop_front();
    sched_.schedule_after(kRnrRetryNs, [this, tenant, buffer,
                                        pending = std::move(pending)]() mutable {
      deliver_into(buffer, pending.dest_qp, tenant, pending.len,
                   std::move(pending.payload));
    });
    return;
  }
  srqs_[tenant].push_back(buffer);
}

std::size_t Rnic::srq_depth(TenantId tenant) const {
  const auto* srq = srqs_.find(tenant);
  return srq == nullptr ? 0 : srq->size();
}

Rnic::QpStateCounts Rnic::qp_state_counts() const {
  QpStateCounts c;
  for (const auto& qp : qps_) {
    switch (qp->state()) {
      case QpState::kReset: ++c.reset; break;
      case QpState::kConnecting: ++c.connecting; break;
      case QpState::kInactive: ++c.inactive; break;
      case QpState::kActive: ++c.active; break;
      case QpState::kError: ++c.error; break;
    }
  }
  return c;
}

int Rnic::sq_outstanding() const {
  int total = 0;
  for (const auto& qp : qps_) total += qp->outstanding();
  return total;
}

std::size_t Rnic::rnr_depth(TenantId tenant) const {
  const auto* rnr = rnr_queues_.find(tenant);
  return rnr == nullptr ? 0 : rnr->size();
}

std::size_t Rnic::drain_srq(TenantId tenant) {
  auto* srq = srqs_.find(tenant);
  if (srq == nullptr) return 0;
  const std::size_t drained = srq->size();
  for (const mem::BufferDescriptor& d : *srq) {
    if (drain_listener_) drain_listener_(tenant, d);
    host_mem_.by_pool(d.pool).pool().release(d, mem::actor_rnic(node_));
  }
  srq->clear();
  return drained;
}

std::size_t Rnic::drain_all_srqs() {
  // Tenants drain independently (each into its own pool and RBR entry),
  // so the visiting order does not reach the model.
  std::size_t drained = 0;
  srqs_.for_each([&](TenantId tenant, const auto&) {
    drained += drain_srq(tenant);
  });
  return drained;
}

void Rnic::fail_qps(NodeId peer) {
  for (auto& qp : qps_) {
    if (peer.valid() && qp->remote_node() != peer) continue;
    if (qp->connected() || qp->state() == QpState::kConnecting) qp->fail();
  }
}

void Rnic::set_write_monitor(PoolId pool, WriteMonitor monitor) {
  write_monitors_[pool] = std::move(monitor);
}

void Rnic::set_atomic_word(std::uint64_t addr, std::uint64_t value,
                           PoolId guard) {
  atomic_words_[addr] = AtomicWord{value, guard};
}

std::uint64_t Rnic::atomic_word(std::uint64_t addr) const {
  auto it = atomic_words_.find(addr);
  PD_CHECK(it != atomic_words_.end(), "unknown atomic word " << addr);
  return it->second.value;
}

sim::Duration Rnic::wr_overhead() {
  sim::Duration overhead = cost::kRnicPerWrNs;
  if (active_qps_ > cost::kRnicQpCacheSlots) {
    overhead += cost::kQpCacheMissPenaltyNs;
    ++counters_.cache_miss_wrs;
  }
  return overhead;
}

void Rnic::execute(QueuePair& qp, const WorkRequest& wr) {
  PD_CHECK(qp.remote_node_.valid(), "QP has no remote peer");
  const NodeId dest = qp.remote_node_;

  if (wr.opcode == Opcode::kCompareSwap || wr.opcode == Opcode::kFetchAdd) {
    if (wr.opcode == Opcode::kCompareSwap) {
      ++counters_.atomics;
    } else {
      ++counters_.fetch_adds;
    }
    const sim::Duration local = wr_overhead();
    ledger_nic(qp.tenant_.value(), local, 0);
    sched_.schedule_after(local, [this, dest, from_qp = qp.id_,
                                  tenant = qp.tenant_, wr] {
      // The wire frame carries the posting tenant in the profile frame so
      // the fabric can attribute link occupancy (ISSUE 10).
      sim::ProfileScope wire{"rnic", "wire",
                             static_cast<std::int64_t>(tenant.value())};
      net_.fabric().send(node_, dest, kAtomicWireBytes, [this, dest, from_qp, wr] {
        net_.rnic(dest).arrive_atomic(node_, from_qp, wr);
      });
    });
    return;
  }

  if (wr.opcode == Opcode::kRead) {
    // One-sided READ: a small request frame travels out; the payload comes
    // back by NIC-to-NIC DMA. The landing buffer must be a registered local
    // MR the posting engine handed to this RNIC.
    PD_CHECK(memory_registered(wr.local.pool),
             "READ lands in unregistered pool " << wr.local.pool);
    ++counters_.reads;
    const sim::Duration local = wr_overhead();
    ledger_nic(qp.tenant_.value(), local, 0);
    sched_.schedule_after(local, [this, dest, from_qp = qp.id_,
                                  tenant = qp.tenant_, wr] {
      sim::ProfileScope wire{"rnic", "wire",
                             static_cast<std::int64_t>(tenant.value())};
      net_.fabric().send(node_, dest, kAtomicWireBytes, [this, dest, from_qp, wr] {
        net_.rnic(dest).arrive_read(node_, from_qp, wr);
      });
    });
    return;
  }

  // SEND / WRITE carry payload out of a registered local buffer that the
  // posting engine handed to the RNIC (ownership token moved on post).
  PD_CHECK(memory_registered(wr.local.pool),
           "WR uses unregistered pool " << wr.local.pool);
  auto& pool = host_mem_.by_pool(wr.local.pool).pool();
  const auto span = pool.access(wr.local, mem::actor_rnic(node_));
  const std::uint32_t len = wr.local.length;
  PD_CHECK(len <= span.size(), "WR length exceeds buffer");

  if (wr.opcode == Opcode::kSend && obs::hub() != nullptr &&
      len >= sizeof(core::MessageHeader)) {
    // Baton hop for the wire transit: close the sender's engine_tx span and
    // stamp a "fabric" span into the in-buffer header *before* the payload
    // is copied onto the wire, so the receiving engine can close it. The
    // RNIC peeks at the message framing only for tracing; the data path
    // stays payload-opaque.
    core::MessageHeader h = core::read_header(span);
    if (core::trace_hop(h, "fabric", name_, sched_.now())) {
      core::write_header(span, h);
    }
  }
  std::vector<std::byte> payload(span.begin(), span.begin() + len);

  counters_.payload_bytes += len;
  if (wr.opcode == Opcode::kSend) {
    ++counters_.sends;
  } else {
    ++counters_.writes;
  }

  // NIC processing + DMA read of the payload from host memory.
  const sim::Duration local_ns =
      wr_overhead() +
      static_cast<sim::Duration>(static_cast<double>(len) * cost::kRnicPerByteNs);
  ledger_nic(qp.tenant_.value(), local_ns, len);

  sched_.schedule_after(local_ns, [this, &qp, wr, dest, len,
                                   payload = std::move(payload)]() mutable {
    // Local send completion: the WR left the NIC; the engine may recycle
    // the buffer (payload already staged for the wire).
    Completion done;
    done.wr_id = wr.wr_id;
    done.opcode = wr.opcode;
    done.is_recv = false;
    done.qp = qp.id_;
    done.tenant = qp.tenant_;
    done.buffer = wr.local;
    done.byte_len = len;
    --qp.outstanding_;
    cq_.push(std::move(done));

    sim::ProfileScope wire{"rnic", "wire",
                           static_cast<std::int64_t>(qp.tenant_.value())};
    net_.fabric().send(
        node_, dest, len,
        [this, dest, from_qp = qp.id_, remote_qp = qp.remote_qp_,
         tenant = qp.tenant_, wr, len,
         payload = std::move(payload)]() mutable {
          Rnic& peer = net_.rnic(dest);
          if (wr.opcode == Opcode::kSend) {
            peer.arrive_send(remote_qp, tenant, len, std::move(payload));
          } else {
            peer.arrive_write(node_, from_qp, wr, len, std::move(payload));
          }
        });
  });
}

void Rnic::arrive_send(QpId dest_qp, TenantId tenant, std::uint32_t len,
                       std::vector<std::byte> payload) {
  auto& srq = srqs_[tenant];
  if (srq.empty()) {
    ++counters_.rnr_events;
    auto& rnr = rnr_queues_[tenant];
    if (rnr.size() >= cost::kRnrQueueLimit) {
      // Receiver-side overload: drop the arrival and NACK the sender's
      // reliability layer so it sheds immediately instead of retrying into
      // the same full queue.
      ++counters_.rnr_drops;
      if (len >= sizeof(core::MessageHeader)) {
        const core::MessageHeader h = core::read_header(payload);
        const NodeId sender = qp(dest_qp).remote_node();
        if (h.seq != 0 && sender.valid()) {
          net_.send_datagram(node_, sender,
                             Datagram{Datagram::Kind::kNack, h.seq});
        }
      }
      return;
    }
    rnr.push_back(PendingRecv{dest_qp, len, std::move(payload)});
    return;
  }
  deliver_to_srq(dest_qp, tenant, len, std::move(payload));
}

void Rnic::deliver_to_srq(QpId dest_qp, TenantId tenant, std::uint32_t len,
                          std::vector<std::byte> payload) {
  auto& srq = srqs_[tenant];
  PD_CHECK(!srq.empty(), "deliver_to_srq on an empty SRQ");
  mem::BufferDescriptor buffer = srq.front();
  srq.pop_front();
  deliver_into(buffer, dest_qp, tenant, len, std::move(payload));
}

void Rnic::deliver_into(mem::BufferDescriptor buffer, QpId dest_qp,
                        TenantId tenant, std::uint32_t len,
                        std::vector<std::byte> payload) {
  auto& pool = host_mem_.by_pool(buffer.pool).pool();
  auto span = pool.access(buffer, mem::actor_rnic(node_));
  PD_CHECK(len <= span.size(), "incoming payload larger than receive buffer");
  std::memcpy(span.data(), payload.data(), len);
  buffer = pool.resize(buffer, mem::actor_rnic(node_), len);

  ++counters_.recvs;
  const sim::Duration ns =
      cost::kRnicPerWrNs +
      static_cast<sim::Duration>(static_cast<double>(len) * cost::kRnicPerByteNs) +
      cost::kRnicCqeNs;
  ledger_nic(tenant.value(), ns, len);
  sched_.schedule_after(ns, [this, dest_qp, tenant, buffer, len] {
    Completion c;
    c.opcode = Opcode::kSend;
    c.is_recv = true;
    c.qp = dest_qp;
    c.tenant = tenant;
    c.buffer = buffer;
    c.byte_len = len;
    cq_.push(std::move(c));
  });
}

void Rnic::arrive_write(NodeId from, QpId from_qp, const WorkRequest& wr,
                        std::uint32_t len, std::vector<std::byte> payload) {
  // One-sided: land directly in the addressed slot; no SRQ, no CQE on this
  // side. The remote CPU is never involved — and never consulted. The NIC
  // does check the rkey: an MR that never granted remote WRITE NAKs the
  // frame back to the initiator instead of DMA-ing it (satellite of ISSUE 8
  // — this used to be unchecked).
  if ((mr_access(wr.remote_pool) & kMrRemoteWrite) == 0) {
    ++counters_.access_errors;
    sched_.schedule_after(cost::kRnicPerWrNs, [this, from, from_qp, wr] {
      net_.fabric().send(node_, from, kAtomicWireBytes, [this, from, from_qp, wr] {
        // The initiator already saw its NIC-exit CQE (outstanding_ slot
        // freed there), so the late NAK raises a pure error CQE.
        net_.rnic(from).complete_error(from_qp, wr, /*outstanding=*/false);
      });
    });
    return;
  }
  auto& pool = host_mem_.by_pool(wr.remote_pool).pool();
  mem::BufferDescriptor target{wr.remote_pool, wr.remote_index, len,
                               pool.tenant()};
  auto span = pool.access(target, mem::actor_rnic(node_));
  PD_CHECK(len <= span.size(), "one-sided write larger than target slot");
  std::memcpy(span.data(), payload.data(), len);

  const sim::Duration ns =
      cost::kRnicPerWrNs +
      static_cast<sim::Duration>(static_cast<double>(len) * cost::kRnicPerByteNs);
  ledger_nic(pool.tenant().value(), ns, len);
  sched_.schedule_after(ns, [this, target, len] {
    auto it = write_monitors_.find(target.pool);
    if (it != write_monitors_.end() && it->second) it->second(target, len);
  });
}

void Rnic::arrive_read(NodeId from, QpId from_qp, WorkRequest wr) {
  // One-sided READ at the target NIC: pure DMA out of the slab, zero remote
  // CPU. The permission check is the NIC's rkey validation.
  if ((mr_access(wr.remote_pool) & kMrRemoteRead) == 0) {
    ++counters_.access_errors;
    sched_.schedule_after(cost::kRnicPerWrNs, [this, from, from_qp, wr] {
      net_.fabric().send(node_, from, kAtomicWireBytes, [this, from, from_qp, wr] {
        net_.rnic(from).complete_error(from_qp, wr, /*outstanding=*/true);
      });
    });
    return;
  }
  auto& pool = host_mem_.by_pool(wr.remote_pool).pool();
  mem::BufferDescriptor source{wr.remote_pool, wr.remote_index, 0,
                               pool.tenant()};
  auto span = pool.access(source, mem::actor_rnic(node_));
  const std::uint32_t len =
      wr.read_len == 0 ? static_cast<std::uint32_t>(span.size()) : wr.read_len;
  if (len > span.size()) {
    // Out-of-bounds fetch is the same hardware NAK as a permission miss.
    ++counters_.access_errors;
    sched_.schedule_after(cost::kRnicPerWrNs, [this, from, from_qp, wr] {
      net_.fabric().send(node_, from, kAtomicWireBytes, [this, from, from_qp, wr] {
        net_.rnic(from).complete_error(from_qp, wr, /*outstanding=*/true);
      });
    });
    return;
  }
  std::vector<std::byte> payload(span.begin(), span.begin() + len);
  counters_.payload_bytes += len;

  // NIC processing + DMA read of the slab bytes, then the response frame
  // carries the payload back to the initiator.
  const sim::Duration ns =
      cost::kRnicPerWrNs +
      static_cast<sim::Duration>(static_cast<double>(len) * cost::kRnicPerByteNs);
  ledger_nic(pool.tenant().value(), ns, len);
  sched_.schedule_after(ns, [this, from, from_qp, wr, len,
                             tenant = pool.tenant(),
                             payload = std::move(payload)]() mutable {
    sim::ProfileScope wire{"rnic", "wire",
                           static_cast<std::int64_t>(tenant.value())};
    net_.fabric().send(node_, from, len,
                       [this, from, from_qp, wr,
                        payload = std::move(payload)]() mutable {
                         net_.rnic(from).complete_read(from_qp, wr,
                                                       std::move(payload));
                       });
  });
}

void Rnic::complete_read(QpId qp_id, const WorkRequest& wr,
                         std::vector<std::byte> payload) {
  // Response landed at the initiator: DMA into the posted landing buffer,
  // then raise the (only) CQE for this WR.
  auto& pool = host_mem_.by_pool(wr.local.pool).pool();
  auto span = pool.access(wr.local, mem::actor_rnic(node_));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  PD_CHECK(len <= span.size(), "READ response larger than landing buffer");
  std::memcpy(span.data(), payload.data(), len);
  const mem::BufferDescriptor sized =
      pool.resize(wr.local, mem::actor_rnic(node_), len);

  const sim::Duration ns =
      cost::kRnicPerWrNs +
      static_cast<sim::Duration>(static_cast<double>(len) * cost::kRnicPerByteNs) +
      cost::kRnicCqeNs;
  ledger_nic(qp(qp_id).tenant().value(), ns, len);
  sched_.schedule_after(ns, [this, qp_id, wr, sized, len] {
    QueuePair& q = qp(qp_id);
    --q.outstanding_;
    Completion c;
    c.wr_id = wr.wr_id;
    c.opcode = Opcode::kRead;
    c.is_recv = false;
    c.qp = qp_id;
    c.tenant = q.tenant();
    c.buffer = sized;
    c.byte_len = len;
    cq_.push(std::move(c));
  });
}

void Rnic::complete_error(QpId qp_id, const WorkRequest& wr, bool outstanding) {
  QueuePair& q = qp(qp_id);
  if (outstanding) --q.outstanding_;
  Completion c;
  c.wr_id = wr.wr_id;
  c.opcode = wr.opcode;
  c.status = CompletionStatus::kRemoteAccessError;
  c.is_recv = false;
  c.qp = qp_id;
  c.tenant = q.tenant();
  c.buffer = wr.local;
  if (wr.opcode != Opcode::kCompareSwap && wr.opcode != Opcode::kFetchAdd) {
    c.byte_len = wr.local.length;
  }
  cq_.push(std::move(c));
}

void Rnic::arrive_atomic(NodeId from, QpId from_qp, WorkRequest wr) {
  auto it = atomic_words_.find(wr.atomic_addr);
  const bool denied =
      it == atomic_words_.end() ||
      (it->second.guard.valid() &&
       (mr_access(it->second.guard) & kMrRemoteAtomic) == 0);
  if (denied) {
    // Used to be a PD_CHECK abort — but a racing CAS against torn-down
    // tenant state is reachable once tenants churn, and real NICs answer
    // with a remote-access NAK, not a machine check. Reject at the same
    // response latency as a served atomic so the initiator's timing does
    // not leak mapping state.
    ++counters_.atomic_access_errors;
    sched_.schedule_after(cost::kRdmaAtomicExtraNs, [this, from, from_qp, wr] {
      net_.fabric().send(node_, from, kAtomicWireBytes, [this, from, from_qp, wr] {
        net_.rnic(from).complete_error(from_qp, wr, /*outstanding=*/true);
      });
    });
    return;
  }

  const std::uint64_t found = it->second.value;
  if (wr.opcode == Opcode::kFetchAdd) {
    it->second.value = found + wr.atomic_desired;
  } else if (found == wr.atomic_expect) {
    it->second.value = wr.atomic_desired;
  }

  sched_.schedule_after(cost::kRdmaAtomicExtraNs, [this, from, from_qp, wr,
                                                   found] {
    net_.fabric().send(node_, from, kAtomicWireBytes, [this, from, from_qp, wr,
                                                       found] {
      Rnic& origin = net_.rnic(from);
      QueuePair& qp = origin.qp(from_qp);
      --qp.outstanding_;
      Completion c;
      c.wr_id = wr.wr_id;
      c.opcode = wr.opcode;
      c.is_recv = false;
      c.qp = from_qp;
      c.tenant = qp.tenant();
      c.atomic_found = found;
      origin.cq_.push(std::move(c));
    });
  });
}

void connect_qps(QueuePair& a, QueuePair& b, std::function<void()> done) {
  PD_CHECK(a.state_ == QpState::kReset && b.state_ == QpState::kReset,
           "connect_qps on non-fresh QPs");
  PD_CHECK(&a.rnic_ != &b.rnic_, "RC connection must span two nodes");
  a.remote_node_ = b.rnic_.node();
  a.remote_qp_ = b.id();
  b.remote_node_ = a.rnic_.node();
  b.remote_qp_ = a.id();
  a.state_ = QpState::kConnecting;
  b.state_ = QpState::kConnecting;
  a.rnic_.sched_.schedule_after(cost::kRcConnectNs,
                                [&a, &b, done = std::move(done)] {
                                  // A fault during the handshake leaves the
                                  // affected end in kError; completing the
                                  // handshake must not resurrect it. `done`
                                  // fires regardless so the caller can
                                  // inspect the outcome and retry.
                                  if (a.state_ == QpState::kConnecting) {
                                    a.state_ = QpState::kInactive;
                                  }
                                  if (b.state_ == QpState::kConnecting) {
                                    b.state_ = QpState::kInactive;
                                  }
                                  if (done) done();
                                });
}

}  // namespace pd::rdma
