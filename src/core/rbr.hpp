// Receive Buffer Registry (§3.5.2): maps posted receive WRs to the tenant
// buffers handed to the RNIC, and tracks per-tenant CQE consumption so the
// DNE core thread can replenish the shared RQs.
//
// Each tenant posts from its one pool on this node, so the registry keeps
// one posted flag per slot of that pool, sized once from the pool's
// capacity when the tenant is added: posting and consuming a buffer index
// a flag and never allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "mem/descriptor.hpp"

namespace pd::core {

class ReceiveBufferRegistry {
 public:
  /// Register `tenant`, whose receive buffers come from `pool` (a pool of
  /// `capacity` buffers).
  void add_tenant(TenantId tenant, PoolId pool, std::size_t capacity) {
    PD_CHECK(tenants_.insert(tenant, Tenant{pool, std::vector<bool>(capacity)}),
             "tenant " << tenant << " already in the RBR");
  }

  /// Record a buffer posted to a tenant's SRQ.
  void on_posted(TenantId tenant, const mem::BufferDescriptor& buffer) {
    Tenant& t = tenant_of(tenant, buffer, "posted");
    PD_CHECK(!t.posted[buffer.index],
             "buffer " << buffer.index << " already registered");
    t.posted[buffer.index] = true;
    ++t.outstanding;
  }

  /// A receive CQE consumed this buffer: validate and account it.
  void on_consumed(TenantId tenant, const mem::BufferDescriptor& buffer) {
    Tenant& t = posted_by(tenant, buffer, "CQE");
    t.posted[buffer.index] = false;
    --t.outstanding;
    ++t.consumed;
  }

  /// A posted buffer left the SRQ without a CQE (fault-injected drain):
  /// forget it so the replenisher sees the deficit and re-posting the same
  /// slot after reallocation doesn't trip the double-post check.
  void on_dropped(TenantId tenant, const mem::BufferDescriptor& buffer) {
    Tenant& t = posted_by(tenant, buffer, "drain");
    t.posted[buffer.index] = false;
    --t.outstanding;
  }

  /// Buffers consumed since the last replenish cycle for `tenant` — the
  /// count the core thread reposts (shared-counter scheme, Fig. 7 red
  /// arrows). Resets the counter.
  std::uint64_t take_consumed(TenantId tenant) {
    Tenant* t = tenants_.find(tenant);
    if (t == nullptr) return 0;
    const std::uint64_t n = t->consumed;
    t->consumed = 0;
    return n;
  }

  [[nodiscard]] std::uint64_t outstanding(TenantId tenant) const {
    const Tenant* t = tenants_.find(tenant);
    return t == nullptr ? 0 : t->outstanding;
  }

 private:
  struct Tenant {
    PoolId pool;
    std::vector<bool> posted;  ///< per pool slot
    std::uint64_t outstanding = 0;
    std::uint64_t consumed = 0;
  };

  /// `tenant`'s entry; `buffer` must be a slot of its pool. `what` names
  /// the event for the failure message.
  Tenant& tenant_of(TenantId tenant, const mem::BufferDescriptor& buffer,
                    const char* what) {
    Tenant* t = tenants_.find(tenant);
    PD_CHECK(t != nullptr, "RBR: " << what << " for unknown tenant " << tenant);
    PD_CHECK(buffer.pool == t->pool && buffer.index < t->posted.size(),
             "RBR: " << what << " tenant mismatch: buffer " << buffer.index
                     << " of pool " << buffer.pool << " is not tenant "
                     << tenant << "'s");
    return *t;
  }

  /// `tenant`'s entry, checking that `buffer` is posted there.
  Tenant& posted_by(TenantId tenant, const mem::BufferDescriptor& buffer,
                    const char* what) {
    Tenant& t = tenant_of(tenant, buffer, what);
    PD_CHECK(t.posted[buffer.index],
             "RBR: " << what << " for unregistered receive buffer "
                     << buffer.index);
    return t;
  }

  IdTable<TenantId, Tenant> tenants_;
};

}  // namespace pd::core
