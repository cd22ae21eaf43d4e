// Node-wide memory management: per-tenant unified memory pools, DPDK
// file-prefix isolation, and the export state used by cross-processor
// shared memory (§3.4).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id_table.hpp"
#include "mem/buffer_pool.hpp"

namespace pd::mem {

/// One tenant's unified memory pool on one node. Created by the tenant's
/// shared-memory agent (DPDK primary process); functions attach to it by
/// file-prefix (DPDK secondary processes); the DNE maps it cross-processor
/// via the DOCA-mmap analog and registers it with the RNIC.
class TenantMemory {
 public:
  TenantMemory(PoolId pool_id, TenantId tenant, std::string file_prefix,
               std::size_t buf_count, Bytes buf_size);

  [[nodiscard]] BufferPool& pool() { return pool_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }
  [[nodiscard]] TenantId tenant() const { return pool_.tenant(); }
  [[nodiscard]] PoolId pool_id() const { return pool_.id(); }
  [[nodiscard]] const std::string& file_prefix() const { return file_prefix_; }

  /// doca_mmap_export_pci(): grant the DPU Arm cores access.
  void export_to_dpu() { exported_to_dpu_ = true; }
  /// doca_mmap_export_rdma(): grant the RNIC access (MR registration input).
  void export_to_rdma() { exported_to_rdma_ = true; }
  [[nodiscard]] bool exported_to_dpu() const { return exported_to_dpu_; }
  [[nodiscard]] bool exported_to_rdma() const { return exported_to_rdma_; }

 private:
  std::string file_prefix_;
  BufferPool pool_;
  bool exported_to_dpu_ = false;
  bool exported_to_rdma_ = false;
};

/// Registry of all tenant pools on one worker node (the view held by the
/// node's shared-memory agents collectively). Enforces prefix uniqueness —
/// two tenants can never share a pool.
class MemoryDomain {
 public:
  explicit MemoryDomain(NodeId node) : node_(node) {}

  TenantMemory& create_tenant_pool(TenantId tenant, std::string file_prefix,
                                   std::size_t buf_count, Bytes buf_size);

  /// Attach path used by functions: resolve by file-prefix. Returns nullptr
  /// if no such pool (function from another tenant cannot guess its way in).
  TenantMemory* attach(const std::string& file_prefix);

  TenantMemory& by_tenant(TenantId tenant);
  TenantMemory& by_pool(PoolId pool);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] std::size_t num_pools() const { return pools_.size(); }
  /// All tenant pools on this node, in creation order (metrics export).
  [[nodiscard]] const std::vector<std::unique_ptr<TenantMemory>>& pools() const {
    return pools_;
  }
  /// Reserved (registered) backing memory across tenants.
  [[nodiscard]] Bytes footprint() const;
  /// Backing memory ever handed out across tenants (BufferPool::touched_bytes).
  [[nodiscard]] Bytes touched_bytes() const;

  /// Attach a simulated-time clock to every pool in the domain — existing
  /// and future — enabling the exact slot-ns occupancy integral the
  /// resource ledger collects (BufferPool::slot_ns).
  void set_clock(std::function<sim::TimePoint()> clock);

 private:
  NodeId node_;
  std::function<sim::TimePoint()> clock_;  // applied to pools created later
  std::vector<std::unique_ptr<TenantMemory>> pools_;
  std::unordered_map<std::string, TenantMemory*> by_prefix_;
  IdTable<TenantId, TenantMemory*> by_tenant_;  // per-message lookup
  std::uint32_t next_pool_id_ = 1;
};

}  // namespace pd::mem
