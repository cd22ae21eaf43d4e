// RDMA-resident shared state store (ISSUE 8 tentpole).
//
// The boutique's CartService is a thin record keeper: View Cart / Home
// Query fetch the session's cart, Add To Cart mutates it. Palladium's
// unified pools are already RDMA-exported (§3.4), so the records can live
// as a remote-readable MR slab on one node and the hot chains can fetch
// them with one-sided READs — no RPC to the cart function, no remote CPU,
// no copy. Mutations take a CAS ownership-token fast path (FaRM-style):
// CAS-acquire the slot's token word, WRITE the record, FAA its version
// word, CAS-release.
//
// Two pieces:
//  - CartStateStore: the slab on the store node. A dedicated tenant pool
//    (slots x kRecordBytes) registered with full remote access plus two
//    atomic-word families guarded by the slab MR: per-slot ownership
//    tokens and per-slot version counters.
//  - CartStoreClient: per remote node. Owns a local-only scratch MR (READ
//    landing buffers / WRITE staging — never a one-sided target), a small
//    RC pool to the store node, and a tagged-wr_id waiter map drained via
//    the node engine's one-sided completion hook (the engine is the sole
//    CQ consumer on cluster nodes).
//
// Error semantics: any remote-access error completion (rkey revoked,
// store unmapped) fails the op back to the caller, which falls back to
// the two-sided RPC path — requests never hang on a denied MR.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "rdma/connection.hpp"
#include "runtime/cluster.hpp"

namespace pd::runtime {

class CartStateStore {
 public:
  /// Pseudo-tenant owning the slab pool (far outside application range).
  static constexpr TenantId kStoreTenant{950};
  /// Bytes per cart record slot.
  static constexpr Bytes kRecordBytes = 2048;

  CartStateStore(WorkerNode& node, std::uint32_t slots);

  [[nodiscard]] NodeId node() const { return node_.id(); }
  [[nodiscard]] PoolId slab() const { return slab_; }
  [[nodiscard]] std::uint32_t slots() const { return slots_; }

  /// Per-slot ownership-token word (0 = free, else the holder's token).
  [[nodiscard]] static std::uint64_t token_addr(std::uint32_t slot) {
    return 0xC0DE0000ULL + slot;
  }
  /// Per-slot version counter, FAA-bumped once per committed update.
  [[nodiscard]] static std::uint64_t version_addr(std::uint32_t slot) {
    return 0xC0DE8000ULL + slot;
  }

  /// Committed updates to `slot` (post-run inspection / tests).
  [[nodiscard]] std::uint64_t version(std::uint32_t slot) const;

 private:
  WorkerNode& node_;
  PoolId slab_{};
  std::uint32_t slots_;
};

class CartStoreClient {
 public:
  /// Pseudo-tenant owning the scratch pool (registered kMrLocal only).
  static constexpr TenantId kScratchTenant{951};
  /// Tag in the top 16 wr_id bits marking store-client WRs on the shared
  /// CQ; everything else belongs to the engine.
  static constexpr std::uint64_t kWrTag = 0xCA57ULL << 48;
  static constexpr std::uint64_t kWrTagMask = 0xFFFFULL << 48;
  /// Scratch slots (READ landing buffers / WRITE staging): the most store
  /// ops one node keeps in flight.
  static constexpr std::uint32_t kScratchSlots = 64;

  CartStoreClient(WorkerNode& node, CartStateStore& store);

  struct Counters {
    std::uint64_t reads = 0;          ///< completed one-sided record READs
    std::uint64_t read_bytes = 0;     ///< record bytes fetched
    std::uint64_t updates = 0;        ///< committed RMW ladders
    std::uint64_t cas_acquires = 0;   ///< token grabs that won
    std::uint64_t cas_conflicts = 0;  ///< contended grabs (backoff + retry)
    std::uint64_t errors = 0;         ///< remote-access error completions
  };

  using StoreDone = std::function<void(bool ok)>;

  /// Fetch up to `bytes` of `slot`'s record with a one-sided READ. `done`
  /// fires from the engine's completion dispatch; false = access denied.
  void read_record(std::uint32_t slot, std::uint32_t bytes, StoreDone done);
  /// Commit a new record image: CAS-acquire the slot token, WRITE the
  /// record, FAA the version word, CAS-release. Contended acquires retry
  /// after kLockRetryBackoffNs; access errors abort with done(false).
  void update_record(std::uint32_t slot, std::uint32_t bytes, StoreDone done);

  /// Deterministic record placement for a request.
  [[nodiscard]] std::uint32_t slot_for(std::uint64_t request_id) const {
    return static_cast<std::uint32_t>(request_id % store_.slots());
  }

  /// Engine one-sided hook: consume tagged completions, leave the rest.
  bool on_completion(const rdma::Completion& c);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Ops in flight or queued for a scratch slot (flight-recorder gauge).
  [[nodiscard]] std::size_t pending() const {
    return waiters_.size() + queue_.size();
  }
  [[nodiscard]] rdma::ConnectionManager& connections() { return cm_; }

  /// Test hook: aim subsequent READs at this node's own scratch pool —
  /// foreign (unregistered) at the store NIC, so the rkey check rejects
  /// them end-to-end and the fallback path runs.
  void set_force_denial(bool on) { force_denial_ = on; }

 private:
  struct Op {
    bool write = false;
    std::uint32_t slot = 0;
    std::uint32_t bytes = 0;
    StoreDone done;
  };

  using Waiter = std::function<void(const rdma::Completion&)>;

  std::uint64_t next_wr_id() { return kWrTag | next_op_++; }
  /// Park a continuation for a wr_id. PD_CHECKs the id is fresh — a
  /// colliding id would silently replace another op's continuation (the
  /// OWDL bug this PR fixes; see owdl_cas_wr_id).
  void wait_on(std::uint64_t wr_id, Waiter fn);
  void pump();
  void start(Op op, std::uint32_t scratch);
  void post_read(Op op, std::uint32_t scratch);
  void post_acquire(Op op, std::uint32_t scratch);
  void post_write(Op op, std::uint32_t scratch);
  void post_faa(Op op, std::uint32_t scratch);
  void post_release(Op op, std::uint32_t scratch, bool ok);
  void release_scratch(std::uint32_t scratch);

  WorkerNode& node_;
  CartStateStore& store_;
  PoolId scratch_pool_{};
  std::vector<mem::BufferDescriptor> scratch_;
  std::vector<std::uint32_t> free_scratch_;
  std::deque<Op> queue_;  ///< ops waiting for a scratch slot
  rdma::ConnectionManager cm_;
  std::unordered_map<std::uint64_t, Waiter> waiters_;
  std::uint64_t next_op_ = 1;
  std::uint64_t token_ = 0;  ///< this node's nonzero ownership-token value
  Counters counters_;
  bool force_denial_ = false;
};

}  // namespace pd::runtime
