// RDMA verbs-layer types: work requests, completions, completion queues.
//
// Mirrors the IB verbs objects Palladium's DNE manipulates (§3.2, §3.5.2):
// WRs posted to a QP's send queue, completions harvested from a CQ that is
// shared node-wide, and an SRQ per tenant feeding receive buffers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "mem/descriptor.hpp"
#include "sim/fifo_ring.hpp"

namespace pd::rdma {

enum class Opcode : std::uint8_t {
  kSend,         ///< two-sided send (consumes a receive buffer remotely)
  kWrite,        ///< one-sided RDMA write
  kRead,         ///< one-sided RDMA read (remote CPU never involved)
  kCompareSwap,  ///< remote atomic (used by distributed-lock designs)
  kFetchAdd,     ///< remote atomic fetch-and-add (counters, version words)
};

const char* to_string(Opcode op);

/// Per-MR access permissions, verbs-style (IBV_ACCESS_*). A registration
/// carries the OR of these; remote one-sided ops are permission-checked at
/// the target NIC and violations come back as error completions — the
/// simulation analog of an rkey check.
inline constexpr std::uint8_t kMrLocal = 0x1;         ///< local send/recv use
inline constexpr std::uint8_t kMrRemoteRead = 0x2;    ///< one-sided READ
inline constexpr std::uint8_t kMrRemoteWrite = 0x4;   ///< one-sided WRITE
inline constexpr std::uint8_t kMrRemoteAtomic = 0x8;  ///< CAS / FAA words
inline constexpr std::uint8_t kMrRemoteAll =
    kMrLocal | kMrRemoteRead | kMrRemoteWrite | kMrRemoteAtomic;

struct WorkRequest {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  /// Local buffer: payload source for kSend/kWrite, landing slot for kRead.
  mem::BufferDescriptor local{};
  /// One-sided target slot in the remote pool (kWrite/kRead only).
  PoolId remote_pool{};
  std::uint32_t remote_index = 0;
  /// Bytes to fetch from the remote slot (kRead only; 0 = whole slot).
  std::uint32_t read_len = 0;
  /// Atomic operands (kCompareSwap / kFetchAdd). FAA reuses atomic_desired
  /// as the addend and ignores atomic_expect.
  std::uint64_t atomic_addr = 0;
  std::uint64_t atomic_expect = 0;
  std::uint64_t atomic_desired = 0;
};

/// CQE status, verbs-style. Remote permission violations (rkey mismatch,
/// op not allowed by the MR flags, unmapped atomic word) surface here at
/// the *initiator* — the target NIC rejects in hardware and the remote CPU
/// never runs.
enum class CompletionStatus : std::uint8_t {
  kSuccess,
  kRemoteAccessError,
};

const char* to_string(CompletionStatus s);

struct Completion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  CompletionStatus status = CompletionStatus::kSuccess;
  bool is_recv = false;
  QpId qp{};
  TenantId tenant{};
  /// Receive completions: buffer the payload landed in.
  mem::BufferDescriptor buffer{};
  std::uint32_t byte_len = 0;
  /// kCompareSwap: value found at the remote address (op succeeded iff
  /// found == expect). kFetchAdd: value before the add.
  std::uint64_t atomic_found = 0;
};

/// Completion queue shared by all QPs of a node (§3.3). Consumers either
/// poll or register a notify callback that fires on the empty->non-empty
/// transition (the simulation analog of a CQ event channel; the DNE uses it
/// to trigger its run-to-completion loop iteration).
class CompletionQueue {
 public:
  void push(Completion c);

  /// Drain up to `max` completions (poll_cq).
  std::vector<Completion> poll(std::size_t max);

  /// Allocation-free poll: clears `out`, refills it with up to `max`
  /// completions and returns the count. Lets a run-to-completion consumer
  /// reuse one scratch vector across iterations.
  std::size_t poll_into(std::vector<Completion>& out, std::size_t max);

  [[nodiscard]] std::size_t depth() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t total_pushed() const { return total_; }

  void set_notify(std::function<void()> notify) { notify_ = std::move(notify); }

 private:
  sim::FifoRing<Completion> entries_;
  std::function<void()> notify_;
  std::uint64_t total_ = 0;
};

}  // namespace pd::rdma
