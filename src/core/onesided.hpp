// RDMA-primitive data-plane variants for the Fig. 12 comparison (§4.1.2):
//
//  - TwoSidedEchoPeer — Palladium's choice: two-sided SEND/RECV with
//    receiver-posted buffers; no locks, no copies.
//  - OwrcEchoPeer — one-sided write into a *dedicated RDMA-only pool* on
//    the receiver, which must then copy the payload into the unified pool
//    (Fig. 2 (2)). Hot/cold variants model the paper's OWRC-Best (cache
//    resident) vs OWRC-Worst (TLB-flushed, main-memory) copies.
//  - OwdlEchoPeer — one-sided write straight into the unified pool,
//    serialized by a *distributed lock* implemented with RDMA CAS
//    (Fig. 2 (1)): lock, write, unlock, and receiver-side polling.
//
// Each peer is an echo endpoint pinned to one core (the paper gives each
// DNE one core). A client peer issues requests and reports RTTs; a server
// peer echoes every arrival back over the same primitive.
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/message.hpp"
#include "mem/memory_domain.hpp"
#include "rdma/rnic.hpp"
#include "sim/core.hpp"
#include "sim/stats.hpp"

namespace pd::core {

/// RTT callback for client-side request completion.
using EchoDone = std::function<void(sim::Duration rtt)>;

/// wr_id spaces for OWDL's three WR kinds, tagged in the top bits so a lock
/// CAS can never alias a data write (or an unlock) in the waiter map no
/// matter how long the run. The pre-fix scheme drew every id from one
/// counter with a flat 1e9 offset for writes, so a raw cas_id eventually
/// collided with `offset + k` and silently invoked the wrong waiter.
constexpr std::uint64_t owdl_cas_wr_id(std::uint64_t n) {
  return (1ULL << 62) | n;
}
constexpr std::uint64_t owdl_write_wr_id(std::uint64_t n) {
  return (2ULL << 62) | n;
}
constexpr std::uint64_t owdl_unlock_wr_id(std::uint64_t n) {
  return (3ULL << 62) | n;
}

// ---------------------------------------------------------------------------
// Two-sided (Palladium)
// ---------------------------------------------------------------------------

class TwoSidedEchoPeer {
 public:
  TwoSidedEchoPeer(sim::Core& core, rdma::Rnic& rnic, TenantId tenant,
                   bool is_server);

  /// Wire the peer to its remote counterpart's QP (already established and
  /// activated by the harness) and pre-post `srq_fill` receive buffers.
  void start(rdma::QueuePair& tx_qp, int srq_fill);

  /// Client side: send `payload_len` bytes and report the RTT.
  void send_request(std::uint32_t payload_len, EchoDone done);

  [[nodiscard]] std::uint64_t echoes() const { return echoes_; }

 private:
  void on_cq_event();
  void drain_cq();
  void post_one_recv();
  void send_message(std::uint64_t request_id, std::uint32_t payload_len);

  sim::Scheduler& sched_;
  sim::Core& core_;
  rdma::Rnic& rnic_;
  TenantId tenant_;
  bool is_server_;
  mem::BufferPool* pool_ = nullptr;
  rdma::QueuePair* tx_qp_ = nullptr;
  bool busy_ = false;
  std::deque<rdma::Completion> backlog_;
  std::unordered_map<std::uint64_t, std::pair<sim::TimePoint, EchoDone>>
      inflight_;
  std::uint64_t next_id_ = 1;
  std::uint64_t echoes_ = 0;
};

// ---------------------------------------------------------------------------
// One-sided with receiver-side copy (OWRC)
// ---------------------------------------------------------------------------

class OwrcEchoPeer {
 public:
  /// `cold_copy`: true models OWRC-Worst (TLB-flushed main-memory copy).
  OwrcEchoPeer(sim::Core& core, rdma::Rnic& rnic, TenantId tenant,
               bool is_server, bool cold_copy);

  /// `rdma_pool`: this peer's dedicated receive-staging pool; `slots`
  /// inbound slots are carved out of it and exposed to the remote writer.
  void start(rdma::QueuePair& tx_qp, mem::TenantMemory& rdma_pool, int slots);

  /// Tell this peer where the remote side stages inbound writes (slot
  /// index i here maps to buffer index i there).
  void set_remote_pool(PoolId remote_rdma_pool) { remote_pool_ = remote_rdma_pool; }

  void send_request(std::uint32_t payload_len, EchoDone done);

  [[nodiscard]] std::uint64_t echoes() const { return echoes_; }

 private:
  void on_cq_event();
  void on_write_arrival(const mem::BufferDescriptor& slot, std::uint32_t len);
  void process_arrival(const mem::BufferDescriptor& slot, std::uint32_t len);
  void write_message(std::uint32_t slot_index, std::uint64_t request_id,
                     std::uint32_t payload_len, bool response);

  sim::Scheduler& sched_;
  sim::Core& core_;
  rdma::Rnic& rnic_;
  TenantId tenant_;
  bool is_server_;
  bool cold_copy_;
  mem::BufferPool* upool_ = nullptr;       // unified pool (copy target)
  mem::BufferPool* rdma_pool_ = nullptr;   // RDMA-only staging pool
  PoolId remote_pool_{};                   // remote staging pool for writes
  rdma::QueuePair* tx_qp_ = nullptr;
  std::vector<std::uint32_t> free_slots_;  // client-side request slots
  std::vector<mem::BufferDescriptor> my_slots_;  // inbound slots (by index)
  std::unordered_map<std::uint64_t, std::pair<sim::TimePoint, EchoDone>>
      inflight_;
  std::unordered_map<std::uint64_t, std::uint32_t> request_slot_;
  std::uint64_t next_id_ = 1;
  std::uint64_t echoes_ = 0;
};

// ---------------------------------------------------------------------------
// One-sided with distributed locks (OWDL)
// ---------------------------------------------------------------------------

class OwdlEchoPeer {
 public:
  OwdlEchoPeer(sim::Core& core, rdma::Rnic& rnic, TenantId tenant,
               bool is_server);

  /// Inbound slots come straight from this peer's unified pool; one lock
  /// word per slot lives on this peer's RNIC.
  void start(rdma::QueuePair& tx_qp, int slots);

  /// Remote unified pool that inbound-to-the-peer writes target.
  void set_remote_pool(PoolId remote_unified_pool) {
    remote_pool_ = remote_unified_pool;
  }

  void send_request(std::uint32_t payload_len, EchoDone done);

  [[nodiscard]] std::uint64_t echoes() const { return echoes_; }

 private:
  static std::uint64_t lock_addr(std::uint32_t slot_index) {
    return 0xA000 + slot_index;
  }

  void on_cq_event();
  void drain_cq();
  /// Park `fn` for wr_id `id`, checking the key is fresh — a reused id
  /// would silently clobber (or race) another in-flight continuation.
  void insert_waiter(std::uint64_t id,
                     std::function<void(std::uint64_t found)> fn);
  void on_write_arrival(const mem::BufferDescriptor& slot, std::uint32_t len);
  void await_unlock(const mem::BufferDescriptor& slot, std::uint32_t len);
  void process_arrival(const mem::BufferDescriptor& slot, std::uint32_t len);
  void acquire_lock_then_write(std::uint32_t slot_index,
                               std::uint64_t request_id,
                               std::uint32_t payload_len, bool response);
  void write_and_unlock(std::uint32_t slot_index, std::uint64_t request_id,
                        std::uint32_t payload_len, bool response);

  sim::Scheduler& sched_;
  sim::Core& core_;
  rdma::Rnic& rnic_;
  TenantId tenant_;
  bool is_server_;
  mem::BufferPool* upool_ = nullptr;
  PoolId remote_pool_{};
  rdma::QueuePair* tx_qp_ = nullptr;
  std::vector<std::uint32_t> free_slots_;
  std::vector<mem::BufferDescriptor> my_slots_;
  std::unordered_map<std::uint64_t, std::pair<sim::TimePoint, EchoDone>>
      inflight_;
  std::unordered_map<std::uint64_t, std::uint32_t> request_slot_;
  /// wr_id -> continuation for CAS results and write completions.
  std::unordered_map<std::uint64_t, std::function<void(std::uint64_t found)>>
      completion_waiters_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_cas_ = 1;
  std::uint64_t next_write_ = 1;
  std::uint64_t next_unlock_ = 1;
  std::uint64_t echoes_ = 0;
};

}  // namespace pd::core
