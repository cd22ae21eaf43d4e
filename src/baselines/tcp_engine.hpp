// SPRIGHT-style data plane (§2.2, §4.3 baseline): intra-node shared memory
// (SK_MSG) exactly like Palladium, but inter-node transfers ride the
// kernel TCP/IP stack through a CPU-resident relay engine. Crossing nodes
// therefore costs serialization (copy out of the pool), kernel protocol
// processing on both sides, and a deserializing copy back into the remote
// tenant pool — the overheads Table 1 attributes to non-distributed
// zero-copy designs. NightCore shares this engine for completeness but is
// deployed single-node in the evaluation (its published form has no
// inter-node path).
#pragma once

#include <memory>
#include <unordered_map>

#include "core/dataplane.hpp"
#include "core/message.hpp"
#include "fabric/fabric.hpp"
#include "ipc/skmsg.hpp"
#include "mem/memory_domain.hpp"
#include "proto/tcp.hpp"

namespace pd::baselines {

class TcpRelayEngine;

/// Shared per-cluster directory so engines can find their peers (stands in
/// for the control plane's service discovery).
struct TcpRelayDirectory {
  std::unordered_map<NodeId, TcpRelayEngine*> engines;
};

class TcpRelayEngine : public core::DataPlane {
 public:
  /// `broker_local`: NightCore mode — the engine also brokers intra-node
  /// invocations (every hop passes through the dispatcher) instead of
  /// letting functions exchange descriptors directly.
  TcpRelayEngine(sim::Scheduler& sched, NodeId node, sim::Core& engine_core,
                 mem::MemoryDomain& host_mem, fabric::Switch& eth,
                 std::shared_ptr<TcpRelayDirectory> directory,
                 proto::StackKind stack = proto::StackKind::kKernel,
                 bool broker_local = false);
  ~TcpRelayEngine() override;

  void submit(FunctionId src, sim::Core& src_core,
              const mem::BufferDescriptor& d,
              bool precharged = false) override;
  [[nodiscard]] sim::Duration ingest_cost() const override;
  void register_local_function(FunctionId fn, TenantId tenant,
                               sim::Core& host_core,
                               ipc::DescriptorHandler deliver) override;
  core::InterNodeRoutingTable& routes() override { return routes_; }
  void add_tenant(TenantId tenant, std::uint32_t weight) override;
  void connect_peer(NodeId remote) override;
  [[nodiscard]] NodeId node() const override { return node_; }

  [[nodiscard]] sim::Core& core() { return engine_core_; }
  [[nodiscard]] std::uint64_t relayed() const { return relayed_; }

 private:
  void on_ingest(const mem::BufferDescriptor& d);
  void on_peer_bytes(std::string_view bytes);
  mem::BufferPool& pool_of(const mem::BufferDescriptor& d);
  [[nodiscard]] mem::Actor actor() const { return mem::actor_engine(node_); }

  sim::Scheduler& sched_;
  NodeId node_;
  sim::Core& engine_core_;
  mem::MemoryDomain& host_mem_;
  fabric::Switch& eth_;
  std::shared_ptr<TcpRelayDirectory> directory_;
  proto::StackKind stack_;
  bool broker_local_;
  core::InterNodeRoutingTable routes_;
  ipc::SockMap sockmap_;
  /// One established TCP connection per peer node (engine-to-engine),
  /// shared with the peer. This engine is endpoint A in conns it created
  /// and endpoint B in conns its peers created.
  std::unordered_map<NodeId, std::shared_ptr<proto::TcpConnection>>
      shared_conns_a_;
  std::unordered_map<NodeId, std::shared_ptr<proto::TcpConnection>>
      shared_conns_b_;
  std::uint64_t relayed_ = 0;
};

}  // namespace pd::baselines
