// Fixed-size buffer pool with exclusive-ownership tracking.
//
// This is the rte_mempool analog from §3.4: a fixed number of equal-size
// buffers carved out of hugepage-backed memory, allocated and recycled in
// O(1) via a freelist. On top of DPDK's semantics we enforce the paper's
// token-passing ownership discipline (§3.5.1): every buffer has exactly one
// owner at a time, and only the owner may access, transfer, or release it.
// Violations throw pd::CheckFailure — a data race in the real system.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "mem/descriptor.hpp"
#include "sim/time.hpp"

namespace pd::mem {

class BufferPool {
 public:
  /// `buf_count` buffers of `buf_size` bytes each. The backing store is
  /// reserved as one contiguous zeroed region, the model of a hugepage
  /// region (2 MiB pages reduce RNIC MTT pressure per §3.4), and its pages
  /// are committed on first write: an idle slot costs no resident memory.
  BufferPool(PoolId id, TenantId tenant, std::size_t buf_count, Bytes buf_size);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocate a buffer owned by `owner`; nullopt when the pool is exhausted
  /// (rte_mempool_get returning -ENOENT).
  std::optional<BufferDescriptor> allocate(Actor owner);

  /// Return a buffer to the pool. Only the current owner may release.
  void release(const BufferDescriptor& d, Actor owner);

  /// Move ownership from `from` to `to` (token passing). The descriptor
  /// itself is what travels; this records the handoff.
  void transfer(const BufferDescriptor& d, Actor from, Actor to);

  /// Access the payload bytes. Only the owner may touch the buffer.
  std::span<std::byte> access(const BufferDescriptor& d, Actor owner);
  std::span<const std::byte> access(const BufferDescriptor& d,
                                    Actor owner) const;

  /// Owner of a buffer (for diagnostics / tests).
  [[nodiscard]] Actor owner_of(const BufferDescriptor& d) const;

  /// Update the valid-length field of an owned buffer and return a fresh
  /// descriptor carrying it.
  BufferDescriptor resize(const BufferDescriptor& d, Actor owner,
                          std::uint32_t new_length);

  [[nodiscard]] PoolId id() const { return id_; }
  [[nodiscard]] TenantId tenant() const { return tenant_; }
  [[nodiscard]] Bytes buffer_size() const { return buf_size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t available() const { return free_.size(); }
  [[nodiscard]] std::size_t in_use() const { return capacity() - available(); }
  /// Reserved bytes of backing memory, which equal the bytes registered
  /// with the RNIC.
  [[nodiscard]] Bytes footprint() const { return capacity() * buf_size_; }

  /// Peak simultaneous in-use buffers (high-water mark, for sizing).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  /// Bytes of backing memory ever handed out. The LIFO freelist hands out
  /// slot 0 first and recycles the latest release, so the slots ever
  /// allocated, the only ones that can have been written, are exactly
  /// {0 .. high_water-1}. A whole slot counts, so this bounds the committed
  /// pool memory from above.
  [[nodiscard]] Bytes touched_bytes() const { return high_water_ * buf_size_; }

  /// Attach a simulated-time clock. While attached, the pool maintains an
  /// exact running integral of in-use slots over time (slot-ns), updated at
  /// every allocate/release — the resource ledger's kPool occupancy signal.
  void set_clock(std::function<sim::TimePoint()> clock) {
    clock_ = std::move(clock);
    if (clock_) last_change_ = clock_();
  }

  /// Exact integral of in-use slots over simulated time through `now`
  /// (slot-ns). Zero until a clock is attached.
  [[nodiscard]] std::uint64_t slot_ns(sim::TimePoint now) const {
    return slot_ns_ + static_cast<std::uint64_t>(in_use()) *
                          static_cast<std::uint64_t>(now - last_change_);
  }

 private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  struct Slot {
    Actor owner{};   // kNone when free
    bool in_use = false;
  };

  const Slot& checked_slot(const BufferDescriptor& d) const;
  Slot& checked_slot(const BufferDescriptor& d);
  /// Fold the elapsed interval at the current in-use count into the slot-ns
  /// integral. Called before every in_use() change.
  void account_usage();

  PoolId id_;
  TenantId tenant_;
  Bytes buf_size_;
  std::unique_ptr<std::byte, Free> backing_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO freelist: hot buffers stay cached
  std::size_t high_water_ = 0;
  std::function<sim::TimePoint()> clock_;  // null: slot-ns accounting off
  std::uint64_t slot_ns_ = 0;
  sim::TimePoint last_change_ = 0;
};

}  // namespace pd::mem
