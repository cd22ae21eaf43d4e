#include "mem/buffer_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "common/check.hpp"

namespace pd::mem {

const char* to_string(ActorKind kind) {
  switch (kind) {
    case ActorKind::kNone: return "none";
    case ActorKind::kFunction: return "function";
    case ActorKind::kNetworkEngine: return "network-engine";
    case ActorKind::kRnic: return "rnic";
  }
  return "?";
}

BufferPool::BufferPool(PoolId id, TenantId tenant, std::size_t buf_count,
                       Bytes buf_size)
    : id_(id), tenant_(tenant), buf_size_(buf_size) {
  PD_CHECK(id.valid() && tenant.valid(), "pool needs valid ids");
  PD_CHECK(buf_count > 0 && buf_size > 0, "empty pool");
  // Descriptors and the freelist index slots with 32 bits.
  PD_CHECK(buf_count <= UINT32_MAX,
           "pool of " << buf_count << " slots exceeds 32-bit indices");
  // Checked here rather than left to calloc: sanitizer allocators abort on
  // an overflowing calloc instead of returning null.
  PD_CHECK(buf_size <= SIZE_MAX / buf_count,
           "pool of " << buf_count << " x " << buf_size << " bytes overflows");
  // calloc keeps fresh slots zero without writing them, so pages stay
  // uncommitted until a slot is first written.
  backing_.reset(static_cast<std::byte*>(std::calloc(buf_count, buf_size)));
  PD_CHECK(backing_, "cannot reserve " << buf_count << " x " << buf_size
                                       << " bytes");
  slots_.resize(buf_count);
  free_.reserve(buf_count);
  // Push in reverse so allocation order starts at slot 0 (LIFO freelist).
  for (std::size_t i = buf_count; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(i));
  }
}

void BufferPool::account_usage() {
  if (!clock_) return;
  const sim::TimePoint now = clock_();
  slot_ns_ += static_cast<std::uint64_t>(in_use()) *
              static_cast<std::uint64_t>(now - last_change_);
  last_change_ = now;
}

std::optional<BufferDescriptor> BufferPool::allocate(Actor owner) {
  PD_CHECK(owner.kind != ActorKind::kNone, "allocation needs an owner");
  if (free_.empty()) return std::nullopt;
  account_usage();
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  slots_[idx] = Slot{owner, true};
  high_water_ = std::max(high_water_, in_use());
  return BufferDescriptor{id_, idx, 0, tenant_};
}

BufferPool::Slot& BufferPool::checked_slot(const BufferDescriptor& d) {
  PD_CHECK(d.pool == id_, "descriptor from pool " << d.pool
                                                  << " used on pool " << id_
                                                  << " (index=" << d.index
                                                  << " len=" << d.length
                                                  << " tenant=" << d.tenant
                                                  << ")");
  PD_CHECK(d.tenant == tenant_, "tenant mismatch on descriptor");
  PD_CHECK(d.index < slots_.size(), "descriptor index out of range");
  Slot& s = slots_[d.index];
  PD_CHECK(s.in_use, "buffer " << d.index << " is not allocated (use-after-free?)");
  return s;
}

const BufferPool::Slot& BufferPool::checked_slot(
    const BufferDescriptor& d) const {
  return const_cast<BufferPool*>(this)->checked_slot(d);
}

void BufferPool::release(const BufferDescriptor& d, Actor owner) {
  Slot& s = checked_slot(d);
  PD_CHECK(s.owner == owner, "release by non-owner "
                                 << to_string(owner.kind) << "/" << owner.id
                                 << "; owner is " << to_string(s.owner.kind)
                                 << "/" << s.owner.id);
  account_usage();
  s = Slot{};
  free_.push_back(d.index);
}

void BufferPool::transfer(const BufferDescriptor& d, Actor from, Actor to) {
  Slot& s = checked_slot(d);
  PD_CHECK(s.owner == from, "transfer by non-owner " << to_string(from.kind)
                                                     << "/" << from.id);
  PD_CHECK(to.kind != ActorKind::kNone, "transfer to nobody");
  s.owner = to;
}

std::span<std::byte> BufferPool::access(const BufferDescriptor& d,
                                        Actor owner) {
  Slot& s = checked_slot(d);
  PD_CHECK(s.owner == owner, "access by non-owner " << to_string(owner.kind)
                                                    << "/" << owner.id);
  return {backing_.get() + static_cast<std::size_t>(d.index) * buf_size_,
          buf_size_};
}

std::span<const std::byte> BufferPool::access(const BufferDescriptor& d,
                                              Actor owner) const {
  return const_cast<BufferPool*>(this)->access(d, owner);
}

Actor BufferPool::owner_of(const BufferDescriptor& d) const {
  return checked_slot(d).owner;
}

BufferDescriptor BufferPool::resize(const BufferDescriptor& d, Actor owner,
                                    std::uint32_t new_length) {
  Slot& s = checked_slot(d);
  PD_CHECK(s.owner == owner, "resize by non-owner");
  PD_CHECK(new_length <= buf_size_, "length " << new_length
                                              << " exceeds buffer size "
                                              << buf_size_);
  BufferDescriptor out = d;
  out.length = new_length;
  return out;
}

}  // namespace pd::mem
