// Cluster assembly: worker nodes, tenants, function deployment, and the
// control-plane coordinator that synchronizes routing state (§3.5.5).
//
// The same Cluster builds every system under evaluation — the
// `SystemKind` selects which DataPlane implementation each worker node
// gets (Palladium DNE/CNE/on-path, SPRIGHT's TCP relay, FUYAO's one-sided
// engine), so §4.3's comparison is apples-to-apples by construction.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/fuyao_engine.hpp"
#include "common/id_table.hpp"
#include "baselines/tcp_engine.hpp"
#include "core/engine.hpp"
#include "fabric/topology.hpp"
#include "obs/hub.hpp"
#include "runtime/chain.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"

namespace pd::runtime {

enum class SystemKind : std::uint8_t {
  kPalladiumDne,     ///< DPU network engine, off-path (the paper's system)
  kPalladiumOnPath,  ///< ablation: on-path DNE with SoC DMA staging
  kPalladiumCne,     ///< network engine on a host CPU core
  kSpright,          ///< shared memory + kernel TCP inter-node
  kNightcore,        ///< single-node shared memory (deploy all on one node)
  kFuyao,            ///< one-sided RDMA + receiver-side copy, polling core
};

const char* to_string(SystemKind kind);

/// Worker-to-shard assignment for multi-shard runs (see ClusterConfig).
enum class ShardMapping : std::uint8_t { kNodePerShard, kLeafPerShard };

struct ClusterConfig {
  SystemKind system = SystemKind::kPalladiumDne;
  core::EngineConfig engine{};      ///< Palladium engine tuning
  std::size_t cpu_cores_per_node = 16;
  std::size_t pool_buffers = 1024;  ///< buffers per tenant pool per node
  Bytes buffer_bytes = 16 * 1024;
  std::uint64_t seed = 0x9E3779B9;
  /// Fabric topology (ISSUE 9). Default (nodes_per_switch = 0) is the flat
  /// single-switch fabric of earlier trees, byte-identical replays
  /// included. With nodes_per_switch = N, workers land on leaf switches in
  /// admission order (N per leaf, the edge on leaf 0) and cross-leaf
  /// traffic pays the leaf-spine detour with oversubscribed uplinks; the
  /// parallel simulator turns the same per-pair distances into its
  /// lookahead matrix.
  fabric::TopologyConfig topology{};
  /// How workers map onto parallel-simulator shards when there is more
  /// than one (a one-shard ParallelSim runs everything on shard 0).
  /// kNodePerShard (the default, and the only option on a flat fabric)
  /// gives every worker its own shard. kLeafPerShard puts each leaf
  /// switch's workers in one shard: intra-leaf traffic — a leaf-affine
  /// cell's entire chain ping-pong —
  /// becomes shard-local and leaves the epoch protocol entirely, while
  /// every remaining cross-shard link is a spine crossing whose multi-us
  /// path latency becomes the pair's lookahead. That is what collapses the
  /// epoch rate at 16–64 nodes; it also matches shards to real core counts
  /// (leaves + 1, not nodes + 1).
  ShardMapping shard_mapping = ShardMapping::kNodePerShard;
};

class Cluster;
class FunctionInstance;
class CartStateStore;
class CartStoreClient;

/// One worker node: host cores, memory domain, optional DPU + RNIC, the
/// system-specific data plane, and the node-local IPC substrate.
class WorkerNode {
 public:
  WorkerNode(Cluster& cluster, NodeId id);

  [[nodiscard]] NodeId id() const { return id_; }
  /// The scheduler shard this node's events run on.
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] mem::MemoryDomain& memory() { return mem_; }
  [[nodiscard]] sim::CoreSet& cpu() { return cpu_; }
  [[nodiscard]] dpu::Dpu* dpu() { return dpu_.get(); }
  [[nodiscard]] rdma::Rnic* rnic() { return rnic_.get(); }
  [[nodiscard]] core::DataPlane& dataplane() { return *dataplane_; }
  [[nodiscard]] ipc::SockMap& local_ipc() { return local_ipc_; }
  [[nodiscard]] core::IntraNodeRoutingTable& intra_routes() { return intra_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  /// Palladium engines expose extra introspection (null for baselines).
  [[nodiscard]] core::NetworkEngine* palladium_engine();
  /// The core running the node's network engine.
  [[nodiscard]] sim::Core& engine_core() { return *engine_core_; }
  /// Whether the data plane brokers co-located invocations too (NightCore:
  /// no direct function-to-function path, §2.2).
  [[nodiscard]] bool brokers_local() const { return brokers_local_; }

  /// Round-robin host-core assignment for deployed functions.
  sim::Core& assign_core();

  /// Apply cost::kComputeJitter to a nominal duration for work on
  /// this node. Draws come from the node's own deterministic stream, so
  /// they stay shard-local and replay identically for any thread count.
  [[nodiscard]] sim::Duration jittered(sim::Duration nominal);

 private:
  friend class Cluster;

  Cluster& cluster_;
  NodeId id_;
  sim::Scheduler& sched_;
  mem::MemoryDomain mem_;
  sim::CoreSet cpu_;
  std::unique_ptr<dpu::Dpu> dpu_;
  std::unique_ptr<rdma::Rnic> rnic_;
  std::unique_ptr<core::DataPlane> dataplane_;
  sim::Core* engine_core_ = nullptr;
  bool brokers_local_ = false;
  ipc::SockMap local_ipc_;
  core::IntraNodeRoutingTable intra_;
  std::size_t next_core_ = 0;
  sim::Rng jitter_;
};

struct FunctionSpec {
  FunctionId id;
  std::string name;
  TenantId tenant;
};

class Cluster {
 public:
  /// The cluster runs on `psim`'s schedulers. Shard 0 hosts the edge
  /// (clients, ingress, Ethernet, control plane). With one shard every
  /// worker lives there too: the plain serial simulation. With more, shard
  /// 1+i hosts the i-th worker added (or its leaf, see ShardMapping), and
  /// the ParallelSim needs 1 + max workers (leaves) shards. Baseline data
  /// planes (SPRIGHT, NightCore, FUYAO) need a single shard. Simulated
  /// results are bit-identical for any worker-thread count; jitter and
  /// loss draw from per-node and per-port RNG streams.
  Cluster(sim::ParallelSim& psim, ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- topology ------------------------------------------------------------

  WorkerNode& add_worker(NodeId id);
  [[nodiscard]] WorkerNode& worker(NodeId id);
  [[nodiscard]] bool has_worker(NodeId id) const;
  /// All worker nodes in creation order (metrics export iterates this).
  [[nodiscard]] const std::vector<std::unique_ptr<WorkerNode>>& workers() const {
    return nodes_;
  }

  /// Create the tenant's memory pool on every worker node and admit it to
  /// every data plane with the given DWRR weight.
  void add_tenant(TenantId tenant, std::uint32_t weight);

  /// Scoped variant: provision the tenant only on `hosts` (the nodes that
  /// will run its functions). On a 16–64-node cluster the all-nodes default
  /// is quadratic — nodes × tenants buffer pools (reserved, committed only
  /// on first write) plus the RC connections finish_setup() builds for
  /// every (peer, tenant) pair — and nearly all of it idle when each
  /// tenant's cell spans two nodes. It also gives every worker pair a
  /// shared tenant, which leaves the PDES communication graph dense. The
  /// ingress keeps its own per-tenant pools and connections either way.
  void add_tenant(TenantId tenant, std::uint32_t weight,
                  const std::vector<NodeId>& hosts);

  /// Deploy a function onto a node (creates the instance, registers it
  /// with the node's data plane + sockmap, and syncs routes cluster-wide —
  /// the coordinator's job on a deployment event).
  FunctionInstance& deploy(const FunctionSpec& spec, NodeId node);

  /// Pre-provision `extra` replica cores for a deployed function on its
  /// node (ISSUE 7). Replicas start inactive; the instance autoscaler (or
  /// a direct set_active_replicas call) activates them.
  void provision_replicas(FunctionId fn, int extra);

  /// Ids of all deployed functions, sorted (deterministic iteration for
  /// controllers attaching per-function state).
  [[nodiscard]] std::vector<FunctionId> deployed_functions() const;

  /// Register a non-function entry point (ingress worker / load driver)
  /// so chains can route responses back to it.
  void register_entry(FunctionId entry, TenantId tenant, NodeId node,
                      sim::Core& core, ipc::DescriptorHandler handler);

  /// Register an entry hosted off the worker set (e.g. on the ingress
  /// node): records placement and pushes routes to every worker data
  /// plane. Delivery on the external node is the caller's responsibility.
  void register_external_entry(FunctionId entry, NodeId node);

  void add_chain(Chain chain) { chains_.add(std::move(chain)); }

  /// ISSUE 8: stand up the RDMA-resident cart/session store — the record
  /// slab + atomic token/version words on `store_node`, and a one-sided
  /// client (scratch MR + RC pool + engine completion hook) on every other
  /// worker. Must run after the workers exist and before finish_setup()
  /// (the RC handshakes drain there). Requires an RDMA-backed Palladium
  /// system. Chains opt hops in via ChainHop::store_op.
  void enable_cart_store(NodeId store_node, std::uint32_t slots = 64);
  /// The store (nullptr until enable_cart_store). The store node itself
  /// has no client — its functions keep using RPC to the state service.
  [[nodiscard]] CartStateStore* cart_store() { return cart_store_.get(); }
  [[nodiscard]] CartStoreClient* cart_client(NodeId node);

  /// Establish inter-node connectivity (RC pools / TCP connections) and
  /// run the scheduler until setup traffic quiesces.
  void finish_setup();

  // --- data plane helpers ---------------------------------------------------

  /// Inject a chain request from an entry actor on `node`. Allocates a
  /// buffer from the tenant pool, writes header + payload, and dispatches
  /// to the chain's first hop charging `entry_core` (the node's first CPU
  /// core when null). Returns false if the pool is exhausted (caller
  /// should back off).
  bool inject_request(FunctionId entry, NodeId node, std::uint32_t chain_id,
                      std::uint64_t request_id,
                      sim::Core* entry_core = nullptr);

  /// Route a message from `src` on `node` per its header (intra-node IPC
  /// or the node's data plane). With `precharged = false` the I/O-library,
  /// sidecar and channel-enqueue costs are charged to `src_core` here;
  /// run-to-completion callers (the function runtime) fold send_cost()
  /// into their own single job and pass `precharged = true`.
  void io_send(FunctionId src, NodeId node, sim::Core& src_core,
               const mem::BufferDescriptor& d, bool precharged = false);

  /// CPU cost of sending one message from `node` to function `dst`
  /// (I/O library + sidecar + intra-node SK_MSG or engine enqueue).
  [[nodiscard]] sim::Duration send_cost(NodeId node, FunctionId dst);

  // --- accessors -------------------------------------------------------------

  /// The edge shard's scheduler (shard 0).
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] sim::ParallelSim& parallel() { return psim_; }
  /// Scheduler owning `node` (the edge shard for non-workers).
  [[nodiscard]] sim::Scheduler& scheduler_for(NodeId node);
  /// Shard index owning `node` (0 for the edge and unknown nodes).
  [[nodiscard]] std::size_t shard_of(NodeId node) const;
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const ChainTable& chains() const { return chains_; }
  [[nodiscard]] rdma::RdmaNetwork* rdma_net() { return rdma_net_.get(); }
  [[nodiscard]] fabric::Switch& ethernet() { return eth_; }
  [[nodiscard]] const fabric::Topology& topology() const { return topo_; }
  [[nodiscard]] NodeId placement_of(FunctionId fn) const;
  [[nodiscard]] FunctionInstance& instance(FunctionId fn);

  // --- observability -------------------------------------------------------
  // Every shard records into its own obs::Hub, installed thread-locally
  // around its execute phase; merge_observability folds them together.

  /// Enable request tracing on the per-shard hubs (off by default; sample
  /// every `n`th trace, 0 disables again).
  void enable_shard_tracing(std::uint64_t n);
  /// Enable exact busy-time profiling on the per-shard hubs: each shard
  /// worker thread folds its cores' busy intervals into its own hub's
  /// obs::Ledger cells, merged by merge_observability. Work submitted
  /// from the calling thread outside any run (setup-era SRQ fills, for
  /// one) folds into the edge shard's ledger, so call it before the
  /// cluster's setup to account for every busy nanosecond.
  void enable_shard_profiling();
  /// Enable the per-tenant resource ledger: each shard worker thread's
  /// obs::Ledger (the same busy observer profiling installs) also records
  /// waits, blame and the NIC / link / pool / queue primitives, folded
  /// together by merge_observability. Also attaches simulated-time clocks
  /// to every buffer pool so the exact slot-ns occupancy integrals accrue.
  void enable_ledger();
  /// Fold every pool's slot-ns integral (through its node's final simulated
  /// time) into the owning shard's ledger. Call once, after the run drains
  /// and before merge_observability.
  void collect_pool_slot_ns();
  /// The hub observing the cluster edge (shard 0's). Requests are
  /// admitted, completed, and blame-targeted on the edge, so this is where
  /// the controllers' ledger lives.
  [[nodiscard]] obs::Hub& edge_hub() { return *shard_hubs_[0]; }
  /// Register a latency SLO with the watchdog that observes this cluster's
  /// requests (the edge shard's hub).
  void add_slo(obs::SloSpec spec);
  /// Start the time-series flight recorder (ISSUE 6): registers gauge
  /// probes over every engine / RNIC / connection manager / buffer pool /
  /// core set, then begins periodic background sampling in simulated time
  /// on each shard's own hub (folded together by merge_observability).
  /// Call after finish_setup() so tenants and connections exist; the
  /// ingress and the chaos controller add their own series via
  /// flight_recorder().
  void start_flight_recorder();
  /// Recorder holding `node`'s series (its owning shard's hub). nullptr
  /// until start_flight_recorder() runs, so callers can no-op cheaply.
  [[nodiscard]] obs::FlightRecorder* flight_recorder(NodeId node);
  /// Fold every shard hub into `into` deterministically (shard order):
  /// counters add, histograms merge, spans concatenate and cross-shard span
  /// ends resolve. Call after the run; shard registries are reset so a
  /// second merge cannot double-count.
  void merge_observability(obs::Hub& into);

  /// Tenant owning a deployed function (invalid() for entries).
  [[nodiscard]] TenantId tenant_of_function(FunctionId fn) const;

 private:
  friend class WorkerNode;

  /// §3.1 security model: messages crossing tenants are copied into the
  /// destination tenant's pool by the sending CPU (no shared memory across
  /// security domains).
  void cross_domain_send(FunctionId src, NodeId node, sim::Core& src_core,
                         const mem::BufferDescriptor& d, FunctionId dst,
                         TenantId dst_tenant);

  /// Register `node`'s gauge probes on its shard's flight recorder. Every
  /// probe reads only shard-local state (the determinism contract).
  void register_flight_probes(WorkerNode& node);

  /// Rebuild the parallel simulator's per-shard-pair lookahead matrix from
  /// the current leaf assignment (after each add_worker): D[a][b] = flat
  /// cross-node lookahead + the minimum cross-leaf detour between the
  /// shards' leaves. Once setup is finished, worker pairs that share no
  /// tenant (and have no cart-store relation) lose their direct edge: no
  /// QPs exist between them, so their bound is the min-plus relay path
  /// through shards they do talk to (edge shard included — the ingress may
  /// target any worker). Any post that violates the tightened matrix
  /// PD_CHECK-faults, so a wrong no-comm assumption is loud, not silent.
  void refresh_lookahead_matrix();

  /// True when some admitted tenant is hosted on both nodes (an unscoped
  /// tenant is hosted everywhere). Such pairs get RC pools at
  /// finish_setup() and a direct edge in the lookahead matrix.
  [[nodiscard]] bool tenants_shared(NodeId a, NodeId b) const;

  sim::ParallelSim& psim_;
  sim::Scheduler& sched_;  ///< shard 0: the edge
  ClusterConfig config_;
  fabric::Topology topo_;  ///< leaf/spine layout shared by both fabrics
  fabric::Switch eth_;  ///< Ethernet network (TCP paths)
  std::unique_ptr<rdma::RdmaNetwork> rdma_net_;
  std::shared_ptr<baselines::TcpRelayDirectory> tcp_directory_;
  std::shared_ptr<baselines::FuyaoDirectory> fuyao_directory_;
  std::vector<std::unique_ptr<WorkerNode>> nodes_;
  IdTable<NodeId, WorkerNode*> by_id_;
  std::unordered_map<TenantId, std::uint32_t> tenants_;
  /// Host scope per tenant (empty vector = every node, the default).
  /// Drives which node pairs finish_setup() meshes and which shard pairs
  /// the PDES lookahead matrix treats as directly communicating.
  std::unordered_map<TenantId, std::vector<NodeId>> tenant_hosts_;
  std::unordered_map<FunctionId, NodeId> placement_;
  IdTable<FunctionId, std::unique_ptr<FunctionInstance>> instances_;
  ChainTable chains_;
  std::unique_ptr<CartStateStore> cart_store_;
  std::vector<std::pair<NodeId, std::unique_ptr<CartStoreClient>>>
      cart_clients_;
  bool setup_done_ = false;
  bool flight_started_ = false;

  IdTable<NodeId, std::size_t> node_shard_;
  std::size_t next_shard_ = 1;  ///< shard 0 is the edge
  std::vector<std::unique_ptr<obs::Hub>> shard_hubs_;
  bool shard_profiling_ = false;
  bool ledger_enabled_ = false;
};

}  // namespace pd::runtime
