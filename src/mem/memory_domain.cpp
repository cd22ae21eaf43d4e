#include "mem/memory_domain.hpp"

#include "common/check.hpp"

namespace pd::mem {

TenantMemory::TenantMemory(PoolId pool_id, TenantId tenant,
                           std::string file_prefix, std::size_t buf_count,
                           Bytes buf_size)
    : file_prefix_(std::move(file_prefix)),
      pool_(pool_id, tenant, buf_count, buf_size) {
  PD_CHECK(!file_prefix_.empty(), "file prefix must be non-empty");
}

TenantMemory& MemoryDomain::create_tenant_pool(TenantId tenant,
                                               std::string file_prefix,
                                               std::size_t buf_count,
                                               Bytes buf_size) {
  PD_CHECK(by_prefix_.find(file_prefix) == by_prefix_.end(),
           "file prefix '" << file_prefix << "' already in use");
  PD_CHECK(!by_tenant_.contains(tenant),
           "tenant " << tenant << " already has a pool on node " << node_);
  const PoolId pool_id{(node_.value() << 16) | next_pool_id_++};
  auto mem = std::make_unique<TenantMemory>(pool_id, tenant,
                                            std::move(file_prefix), buf_count,
                                            buf_size);
  TenantMemory* raw = mem.get();
  if (clock_) raw->pool().set_clock(clock_);
  pools_.push_back(std::move(mem));
  by_prefix_[raw->file_prefix()] = raw;
  by_tenant_.insert(tenant, raw);
  return *raw;
}

void MemoryDomain::set_clock(std::function<sim::TimePoint()> clock) {
  clock_ = std::move(clock);
  for (auto& p : pools_) p->pool().set_clock(clock_);
}

TenantMemory* MemoryDomain::attach(const std::string& file_prefix) {
  auto it = by_prefix_.find(file_prefix);
  return it == by_prefix_.end() ? nullptr : it->second;
}

TenantMemory& MemoryDomain::by_tenant(TenantId tenant) {
  TenantMemory* const* mem = by_tenant_.find(tenant);
  PD_CHECK(mem != nullptr,
           "no pool for tenant " << tenant << " on node " << node_);
  return **mem;
}

TenantMemory& MemoryDomain::by_pool(PoolId pool) {
  // PoolId layout is (node << 16) | creation-order counter starting at 1,
  // and pools are never removed — the low half indexes pools_ directly.
  // This lookup runs on every buffer access, so it must not hash.
  const std::uint32_t idx = (pool.value() & 0xffff) - 1;
  PD_CHECK((pool.value() >> 16) == node_.value() && idx < pools_.size(),
           "unknown pool " << pool << " on node " << node_);
  return *pools_[idx];
}

Bytes MemoryDomain::footprint() const {
  Bytes total = 0;
  for (const auto& p : pools_) total += p->pool().footprint();
  return total;
}

Bytes MemoryDomain::touched_bytes() const {
  Bytes total = 0;
  for (const auto& p : pools_) total += p->pool().touched_bytes();
  return total;
}

}  // namespace pd::mem
