#include "runtime/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/trace_hooks.hpp"
#include "proto/cost_model.hpp"
#include "runtime/function.hpp"
#include "runtime/statestore.hpp"
#include "sim/profile.hpp"

namespace pd::runtime {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kPalladiumDne: return "Palladium (DNE)";
    case SystemKind::kPalladiumOnPath: return "Palladium (on-path DNE)";
    case SystemKind::kPalladiumCne: return "Palladium (CNE)";
    case SystemKind::kSpright: return "SPRIGHT";
    case SystemKind::kNightcore: return "NightCore";
    case SystemKind::kFuyao: return "FUYAO";
  }
  return "?";
}

namespace {

bool is_palladium(SystemKind kind) {
  return kind == SystemKind::kPalladiumDne ||
         kind == SystemKind::kPalladiumOnPath ||
         kind == SystemKind::kPalladiumCne;
}

bool uses_rdma(SystemKind kind) {
  return is_palladium(kind) || kind == SystemKind::kFuyao;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerNode
// ---------------------------------------------------------------------------

WorkerNode::WorkerNode(Cluster& cluster, NodeId id)
    : cluster_(cluster),
      id_(id),
      sched_(cluster.scheduler_for(id)),
      mem_(id),
      cpu_(sched_, "node" + std::to_string(id.value()) + "/cpu",
           cluster.config().cpu_cores_per_node, cost::kHostCoreSpeed),
      local_ipc_(sched_),
      jitter_(cluster.config().seed ^
              (0xC0FFEE5EEDULL *
               (static_cast<std::uint64_t>(id.value()) + 1))) {
  const ClusterConfig& cfg = cluster.config();
  const SystemKind sys = cfg.system;

  if (uses_rdma(sys)) {
    rnic_ = std::make_unique<rdma::Rnic>(*cluster.rdma_net_, id, mem_);
  }
  if (sys == SystemKind::kPalladiumDne || sys == SystemKind::kPalladiumOnPath) {
    dpu_ = std::make_unique<dpu::Dpu>(sched_, id, cost::kDpuCores);
  }

  switch (sys) {
    case SystemKind::kPalladiumDne:
    case SystemKind::kPalladiumOnPath: {
      engine_core_ = &dpu_->core(0);
      const auto kind = sys == SystemKind::kPalladiumDne
                            ? core::EngineKind::kDneOffPath
                            : core::EngineKind::kDneOnPath;
      dataplane_ = std::make_unique<core::NetworkEngine>(
          sched_, kind, cfg.engine, *engine_core_, *rnic_, mem_, dpu_.get());
      break;
    }
    case SystemKind::kPalladiumCne: {
      // The CNE claims a host core for the engine loop.
      engine_core_ = &cpu_.core(cpu_.size() - 1);
      dataplane_ = std::make_unique<core::NetworkEngine>(
          sched_, core::EngineKind::kCne, cfg.engine, *engine_core_, *rnic_,
          mem_, nullptr);
      break;
    }
    case SystemKind::kSpright:
    case SystemKind::kNightcore: {
      engine_core_ = &cpu_.core(cpu_.size() - 1);
      brokers_local_ = sys == SystemKind::kNightcore;
      dataplane_ = std::make_unique<baselines::TcpRelayEngine>(
          sched_, id, *engine_core_, mem_, cluster.eth_,
          cluster.tcp_directory_, proto::StackKind::kKernel, brokers_local_);
      break;
    }
    case SystemKind::kFuyao: {
      engine_core_ = &cpu_.core(cpu_.size() - 1);
      dataplane_ = std::make_unique<baselines::FuyaoEngine>(
          sched_, id, *engine_core_, mem_, *rnic_, cluster.fuyao_directory_);
      break;
    }
  }
}

core::NetworkEngine* WorkerNode::palladium_engine() {
  return dynamic_cast<core::NetworkEngine*>(dataplane_.get());
}

sim::Core& WorkerNode::assign_core() {
  // Functions avoid the engine core (the last host core when the engine is
  // CPU-resident).
  const std::size_t usable =
      cpu_.size() - (engine_core_ == &cpu_.core(cpu_.size() - 1) ? 1 : 0);
  PD_CHECK(usable > 0, "no host cores left for functions");
  sim::Core& core = cpu_.core(next_core_ % usable);
  ++next_core_;
  return core;
}

sim::Duration WorkerNode::jittered(sim::Duration nominal) {
  if (nominal == 0) return nominal;
  const double factor =
      1.0 + cost::kComputeJitter * (2.0 * jitter_.next_double() - 1.0);
  return static_cast<sim::Duration>(static_cast<double>(nominal) * factor);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(sim::ParallelSim& psim, ClusterConfig config)
    : psim_(psim), sched_(psim.shard(0)), config_(config), eth_(sched_) {
  PD_CHECK(is_palladium(config_.system) || psim.shard_count() == 1,
           "baseline data planes need a single shard (they assume one "
           "scheduler)");
  topo_.configure(config_.topology);
  eth_.set_topology(&topo_);
  if (uses_rdma(config_.system)) {
    rdma_net_ = std::make_unique<rdma::RdmaNetwork>(sched_);
    rdma_net_->fabric().set_topology(&topo_);
    rdma_net_->fabric().set_remote_post(
        [this](NodeId dst, sim::TimePoint t, sim::EventFn&& fn) {
          psim_.post(shard_of(dst), t, std::move(fn));
        });
  }
  tcp_directory_ = std::make_shared<baselines::TcpRelayDirectory>();
  fuyao_directory_ = std::make_shared<baselines::FuyaoDirectory>();
  refresh_lookahead_matrix();
  // Each shard records into its own observability hub (installed
  // thread-locally around its execute phase): no cross-thread sharing on
  // the hot path, deterministic merge afterwards. Tracing starts disabled.
  shard_hubs_.reserve(psim.shard_count());
  for (std::size_t k = 0; k < psim.shard_count(); ++k) {
    auto hub = std::make_unique<obs::Hub>();
    hub->tracer.set_shard(static_cast<std::uint32_t>(k));
    hub->tracer.set_sample_every(0);
    shard_hubs_.push_back(std::move(hub));
  }
  psim.set_shard_hooks(
      [this](std::size_t k) {
        obs::install_thread_hub(shard_hubs_[k].get());
        if (ledger_enabled_ || shard_profiling_) {
          sim::install_thread_busy_observer(&shard_hubs_[k]->ledger);
        }
      },
      [this](std::size_t) {
        obs::install_thread_hub(nullptr);
        // Outside runs only profiling observes, into the edge shard's
        // ledger: busy cells merge by key, so which shard holds them does
        // not matter.
        if (ledger_enabled_ || shard_profiling_) {
          sim::install_thread_busy_observer(
              shard_profiling_ ? &shard_hubs_[0]->ledger : nullptr);
        }
      });
}

Cluster::~Cluster() {
  if (shard_profiling_) sim::install_thread_busy_observer(nullptr);
}

sim::Scheduler& Cluster::scheduler_for(NodeId node) {
  const std::size_t* shard = node_shard_.find(node);
  return shard == nullptr ? sched_ : psim_.shard(*shard);
}

std::size_t Cluster::shard_of(NodeId node) const {
  const std::size_t* shard = node_shard_.find(node);
  return shard == nullptr ? 0 : *shard;
}

void Cluster::enable_shard_tracing(std::uint64_t n) {
  for (auto& hub : shard_hubs_) hub->tracer.set_sample_every(n);
}

void Cluster::enable_shard_profiling() {
  shard_profiling_ = true;
  sim::install_thread_busy_observer(&shard_hubs_[0]->ledger);
}

void Cluster::enable_ledger() {
  ledger_enabled_ = true;
  // Pool clocks: each domain reads its own node's scheduler, so the slot-ns
  // integral advances in the node's shard time (owner-shard-local).
  for (auto& node : nodes_) {
    sim::Scheduler* s = &node->scheduler();
    node->memory().set_clock([s] { return s->now(); });
  }
  for (auto& hub : shard_hubs_) hub->ledger.set_enabled(true);
}

void Cluster::collect_pool_slot_ns() {
  if (!ledger_enabled_) return;
  for (auto& node : nodes_) {
    obs::Ledger& led = shard_hubs_[shard_of(node->id())]->ledger;
    const sim::TimePoint now = node->scheduler().now();
    for (const auto& tm : node->memory().pools()) {
      const mem::BufferPool& pool = tm->pool();
      led.add_slot_ns(
          "node" + std::to_string(node->id().value()) + "/pool/" +
              tm->file_prefix(),
          pool.tenant().value(), pool.slot_ns(now), pool.footprint());
    }
  }
}

void Cluster::add_slo(obs::SloSpec spec) {
  // Requests are admitted and completed on the edge (shard 0), so that
  // hub's watchdog sees every sample in one deterministic stream
  // regardless of worker-thread count.
  shard_hubs_[0]->slo.add(std::move(spec));
}

void Cluster::merge_observability(obs::Hub& into) {
  for (std::size_t k = 0; k < shard_hubs_.size(); ++k) {
    obs::Hub& hub = *shard_hubs_[k];
    // Close the trailing SLO window at the shard's final simulated time
    // before folding, so partial-window alerts are not lost.
    hub.slo.finish(psim_.shard(k).now());
    into.registry.merge_from(hub.registry);
    into.tracer.absorb(hub.tracer);
    into.ledger.absorb(hub.ledger);
    into.slo.absorb(hub.slo);
    // Flight series fold in shard order; the donor recorder is emptied
    // (and its sampler stopped) so a second merge cannot double-count.
    into.timeseries.merge_from(hub.timeseries);
    hub.registry.reset();
    hub.ledger.reset();
  }
  into.tracer.resolve_foreign_ends();
}

obs::FlightRecorder* Cluster::flight_recorder(NodeId node) {
  if (!flight_started_) return nullptr;
  return &shard_hubs_[shard_of(node)]->timeseries;
}

void Cluster::start_flight_recorder() {
  PD_CHECK(!flight_started_, "flight recorder already started");
  flight_started_ = true;
  for (auto& node : nodes_) register_flight_probes(*node);
  // Sampling runs on every shard (the edge shard included: the ingress
  // registers its own probes there), each on its own clock — background
  // events, so the recorder never keeps a drain-to-idle run() alive.
  for (std::size_t k = 0; k < shard_hubs_.size(); ++k) {
    shard_hubs_[k]->timeseries.start(psim_.shard(k));
  }
}

void Cluster::register_flight_probes(WorkerNode& node) {
  obs::FlightRecorder* rec = flight_recorder(node.id());
  if (rec == nullptr) return;
  const std::string nl = "node=" + std::to_string(node.id().value());

  // tenants_ is an unordered_map; registration iterates sorted ids so the
  // per-tenant series set is created identically on every run.
  std::vector<TenantId> tenants;
  tenants.reserve(tenants_.size());
  for (const auto& [t, w] : tenants_) {
    (void)w;
    tenants.push_back(t);
  }
  std::sort(tenants.begin(), tenants.end());

  if (core::NetworkEngine* eng = node.palladium_engine()) {
    rec->probe("engine.tx_backlog", nl,
               [eng] { return static_cast<double>(eng->tx_backlog()); });
    rec->probe("engine.unacked", nl,
               [eng] { return static_cast<double>(eng->unacked_count()); });
    rec->probe("engine.unacked_headroom", nl, [eng] {
      const std::size_t cap = eng->config().max_unacked;
      const std::size_t used = eng->unacked_count();
      return static_cast<double>(cap > used ? cap - used : 0);
    });
    rdma::ConnectionManager& cm = eng->connections();
    rec->probe("conn.active_qps", nl, [&cm] {
      return static_cast<double>(cm.active_count());
    });
    rec->probe("conn.rebuilds_in_flight", nl, [&cm] {
      return static_cast<double>(cm.rebuilds_in_flight());
    });
    rec->probe("conn.deferred_wrs", nl, [&cm] {
      return static_cast<double>(cm.deferred_wrs());
    });
    for (TenantId t : tenants) {
      const std::string tl = nl + ",tenant=" + std::to_string(t.value());
      rec->probe("dwrr.queued", tl, [eng, t] {
        return static_cast<double>(eng->queued_for(t));
      });
      rec->probe("dwrr.deficit", tl, [eng, t] {
        return static_cast<double>(eng->dwrr_deficit(t));
      });
    }
  }

  if (CartStoreClient* sc = cart_client(node.id())) {
    // One-sided store client: ops in flight or queued for a scratch slot,
    // plus the cumulative conflict/error counters as sampled series.
    rec->probe("store.pending", nl, [sc] {
      return static_cast<double>(sc->pending());
    });
    rec->probe("store.cas_conflicts", nl, [sc] {
      return static_cast<double>(sc->counters().cas_conflicts);
    });
    rec->probe("store.errors", nl, [sc] {
      return static_cast<double>(sc->counters().errors);
    });
  }

  if (rdma::Rnic* rnic = node.rnic()) {
    rec->probe("rnic.cq_depth", nl, [rnic] {
      return static_cast<double>(rnic->cq().depth());
    });
    rec->probe("rnic.sq_outstanding", nl, [rnic] {
      return static_cast<double>(rnic->sq_outstanding());
    });
    rec->probe("qp.connecting", nl, [rnic] {
      return static_cast<double>(rnic->qp_state_counts().connecting);
    });
    rec->probe("qp.active", nl, [rnic] {
      return static_cast<double>(rnic->qp_state_counts().active);
    });
    rec->probe("qp.inactive", nl, [rnic] {
      return static_cast<double>(rnic->qp_state_counts().inactive);
    });
    rec->probe("qp.error", nl, [rnic] {
      return static_cast<double>(rnic->qp_state_counts().error);
    });
    for (TenantId t : tenants) {
      const std::string tl = nl + ",tenant=" + std::to_string(t.value());
      rec->probe("rnic.srq_depth", tl, [rnic, t] {
        return static_cast<double>(rnic->srq_depth(t));
      });
      rec->probe("rnic.rnr_depth", tl, [rnic, t] {
        return static_cast<double>(rnic->rnr_depth(t));
      });
    }
  }

  // Buffer pools: occupancy plus free/registered bytes per memory domain
  // (pools() iterates creation order — deterministic).
  mem::MemoryDomain& domain = node.memory();
  for (const auto& tm : domain.pools()) {
    const std::string pl =
        nl + ",tenant=" + std::to_string(tm->tenant().value());
    const mem::BufferPool* pool = &tm->pool();
    rec->probe("pool.in_use", pl, [pool] {
      return static_cast<double>(pool->in_use());
    });
    rec->probe("pool.free_bytes", pl, [pool] {
      return static_cast<double>(pool->available()) *
             static_cast<double>(pool->buffer_size());
    });
  }
  rec->probe("mem.registered_bytes", nl, [m = &domain] {
    Bytes total = 0;
    for (const auto& tm : m->pools()) {
      if (tm->exported_to_rdma()) total += tm->pool().footprint();
    }
    return static_cast<double>(total);
  });

  // Core utilization: busy-time delta per sampling window. The first
  // window is seeded from the busy time at registration, so setup work
  // is not charged to the run's first bucket.
  rec->probe("core.util", nl + ",set=cpu",
             [cpu = &node.cpu(),
              denom = static_cast<double>(
                          obs::FlightRecorder::kSamplePeriod) *
                      static_cast<double>(node.cpu().size()),
              last = node.cpu().total_busy_ns()]() mutable {
               const sim::Duration busy = cpu->total_busy_ns();
               const double u = static_cast<double>(busy - last) / denom;
               last = busy;
               return u < 1.0 ? u : 1.0;
             });
  rec->probe("core.util", nl + ",set=engine",
             [core = &node.engine_core(),
              denom = static_cast<double>(
                  obs::FlightRecorder::kSamplePeriod),
              last = node.engine_core().busy_ns()]() mutable {
               const sim::Duration busy = core->busy_ns();
               const double u = static_cast<double>(busy - last) / denom;
               last = busy;
               return u < 1.0 ? u : 1.0;
             });
  rec->probe("core.ring", nl + ",set=engine", [core = &node.engine_core()] {
    return static_cast<double>(core->queue_len());
  });
}

WorkerNode& Cluster::add_worker(NodeId id) {
  PD_CHECK(!setup_done_, "topology frozen after finish_setup");
  PD_CHECK(!by_id_.contains(id), "worker " << id << " exists");
  if (topo_.multi_switch()) {
    // Workers fill leaf switches in admission order; leaf 0 is the edge
    // (ingress node and clients), so the first worker starts leaf 1.
    topo_.assign(id, static_cast<std::uint32_t>(
                         1 + nodes_.size() / topo_.config().nodes_per_switch));
  }
  if (!eth_.attached(id)) eth_.attach(id);
  // A one-shard simulation hosts every worker on shard 0, next to the edge.
  std::size_t shard = 0;
  if (psim_.shard_count() > 1) {
    if (config_.shard_mapping == ShardMapping::kLeafPerShard) {
      PD_CHECK(topo_.multi_switch(),
               "kLeafPerShard needs a multi-switch topology");
      // Shard index = leaf index (workers start at leaf 1; shard 0 stays
      // the edge). All of a leaf's workers share one scheduler.
      shard = topo_.leaf_of(id);
      PD_CHECK(shard < psim_.shard_count(),
               "more leaves than shards: construct ParallelSim with 1 + "
               "ceil(workers / nodes_per_switch) shards");
    } else {
      shard = next_shard_++;
      PD_CHECK(shard < psim_.shard_count(),
               "more workers than shards: construct ParallelSim with 1 + "
               "workers shards");
    }
  }
  node_shard_.insert(id, shard);
  if (rdma_net_ != nullptr) {
    rdma_net_->set_node_scheduler(id, psim_.shard(shard));
  }
  auto node = std::make_unique<WorkerNode>(*this, id);
  WorkerNode* raw = node.get();
  nodes_.push_back(std::move(node));
  by_id_.insert(id, raw);
  refresh_lookahead_matrix();
  return *raw;
}

bool Cluster::tenants_shared(NodeId a, NodeId b) const {
  for (const auto& [tenant, hosts] : tenant_hosts_) {
    if (hosts.empty()) return true;  // unscoped = hosted everywhere
    const bool on_a = std::find(hosts.begin(), hosts.end(), a) != hosts.end();
    const bool on_b = std::find(hosts.begin(), hosts.end(), b) != hosts.end();
    if (on_a && on_b) return true;
  }
  // The cart state store serves one-sided ops from every client node.
  if (cart_store_ != nullptr) {
    const NodeId store = cart_store_->node();
    if (a == store || b == store) return true;
  }
  return false;
}

void Cluster::refresh_lookahead_matrix() {
  const std::size_t n = psim_.shard_count();
  // Shard 0 (edge) and shards without a worker yet sit on leaf 0; a pair's
  // lookahead is the flat cross-node bound plus the minimum spine detour
  // between the two leaves. Workers on the same leaf keep the tight flat
  // bound — that is what makes the adaptive horizons pay off at scale.
  std::vector<std::uint32_t> leaf(n, 0);
  std::vector<std::vector<NodeId>> shard_nodes(n);
  node_shard_.for_each([&](NodeId node, std::size_t shard) {
    leaf[shard] = topo_.leaf_of(node);  // kLeafPerShard: uniform per shard
    shard_nodes[shard].push_back(node);
  });
  const sim::Duration flat = fabric::cross_node_lookahead();
  // Worker pairs with no shared tenant exchange no traffic — finish_setup
  // builds no RC pools between them — so they carry no direct edge; the
  // min-plus closure inside set_lookahead_matrix bounds them by their
  // cheapest relay chain instead (typically through the edge shard, whose
  // ingress talks to everyone). Before setup completes the conservative
  // all-pairs matrix stays in force: the handshake traffic finish_setup
  // drains is itself cross-shard.
  constexpr sim::Duration kNoDirectEdge =
      std::numeric_limits<sim::Duration>::max() / 4;
  std::vector<std::vector<sim::Duration>> d(
      n, std::vector<sim::Duration>(n, 0));
  const auto any_shared = [&](std::size_t a, std::size_t b) {
    for (NodeId na : shard_nodes[a]) {
      for (NodeId nb : shard_nodes[b]) {
        if (tenants_shared(na, nb)) return true;
      }
    }
    return false;
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const bool edge_pair = a == 0 || b == 0;
      if (setup_done_ && !edge_pair && !any_shared(a, b)) {
        d[a][b] = kNoDirectEdge;
        continue;
      }
      d[a][b] = flat + topo_.min_extra_between_leaves(leaf[a], leaf[b]);
    }
  }
  psim_.set_lookahead_matrix(std::move(d));
}

WorkerNode& Cluster::worker(NodeId id) {
  WorkerNode** node = by_id_.find(id);
  PD_CHECK(node != nullptr, "unknown worker " << id);
  return **node;
}

bool Cluster::has_worker(NodeId id) const {
  return by_id_.contains(id);
}

void Cluster::add_tenant(TenantId tenant, std::uint32_t weight) {
  add_tenant(tenant, weight, {});
}

void Cluster::add_tenant(TenantId tenant, std::uint32_t weight,
                         const std::vector<NodeId>& hosts) {
  PD_CHECK(tenants_.emplace(tenant, weight).second,
           "tenant " << tenant << " already admitted");
  for (NodeId h : hosts) {
    PD_CHECK(has_worker(h), "tenant host " << h << " is not a worker");
  }
  tenant_hosts_[tenant] = hosts;
  for (auto& node : nodes_) {
    if (!hosts.empty() &&
        std::find(hosts.begin(), hosts.end(), node->id()) == hosts.end()) {
      continue;
    }
    auto& tm = node->memory().create_tenant_pool(
        tenant, "tenant_" + std::to_string(tenant.value()),
        config_.pool_buffers, config_.buffer_bytes);
    tm.export_to_dpu();
    tm.export_to_rdma();
    node->dataplane().add_tenant(tenant, weight);
  }
}

FunctionInstance& Cluster::deploy(const FunctionSpec& spec, NodeId node_id) {
  PD_CHECK(tenants_.find(spec.tenant) != tenants_.end(),
           "deploy before tenant admission");
  PD_CHECK(placement_.find(spec.id) == placement_.end(),
           "function " << spec.id << " already deployed");
  WorkerNode& node = worker(node_id);
  sim::Core& core = node.assign_core();
  auto inst = std::make_unique<FunctionInstance>(node, spec, core);
  FunctionInstance* raw = inst.get();
  instances_.insert(spec.id, std::move(inst));
  placement_[spec.id] = node_id;

  // Inbound from the fabric.
  node.dataplane().register_local_function(
      spec.id, spec.tenant, core,
      [raw](const mem::BufferDescriptor& d) { raw->on_message(d); });
  // Inbound from co-located functions.
  node.local_ipc().register_socket(
      spec.id, core, [raw](const mem::BufferDescriptor& d) { raw->on_message(d); });
  node.intra_routes().add_local(spec.id);

  // Coordinator: propagate the placement to every *other* node's
  // inter-node table.
  for (auto& other : nodes_) {
    if (other->id() != node_id) other->dataplane().routes().add_route(spec.id, node_id);
  }
  return *raw;
}

void Cluster::register_entry(FunctionId entry, TenantId tenant, NodeId node_id,
                             sim::Core& core, ipc::DescriptorHandler handler) {
  WorkerNode& node = worker(node_id);
  node.dataplane().register_local_function(entry, tenant, core, handler);
  node.local_ipc().register_socket(entry, core, std::move(handler));
  node.intra_routes().add_local(entry);
  placement_[entry] = node_id;
  for (auto& other : nodes_) {
    if (other->id() != node_id) other->dataplane().routes().add_route(entry, node_id);
  }
}

void Cluster::register_external_entry(FunctionId entry, NodeId node) {
  PD_CHECK(!has_worker(node), "use register_entry for worker-hosted entries");
  PD_CHECK(placement_.emplace(entry, node).second,
           "entry " << entry << " already placed");
  for (auto& worker : nodes_) {
    worker->dataplane().routes().add_route(entry, node);
  }
}

void Cluster::enable_cart_store(NodeId store_node, std::uint32_t slots) {
  PD_CHECK(!setup_done_, "enable_cart_store must run before finish_setup");
  PD_CHECK(cart_store_ == nullptr, "cart store already enabled");
  PD_CHECK(rdma_net_ != nullptr && is_palladium(config_.system),
           "the cart store needs an RDMA-backed Palladium data plane");
  PD_CHECK(has_worker(store_node), "unknown store node " << store_node);

  cart_store_ = std::make_unique<CartStateStore>(worker(store_node), slots);
  for (auto& node : nodes_) {
    if (node->id() == store_node) continue;
    auto client = std::make_unique<CartStoreClient>(*node, *cart_store_);
    // The node engine is the sole CQ consumer: route the client's tagged
    // one-sided completions to it from the engine's rx loop.
    core::NetworkEngine* eng = node->palladium_engine();
    PD_CHECK(eng != nullptr, "cart store client needs a Palladium engine");
    eng->set_onesided_handler(
        [raw = client.get()](const rdma::Completion& c) {
          return raw->on_completion(c);
        });
    cart_clients_.emplace_back(node->id(), std::move(client));
  }
}

CartStoreClient* Cluster::cart_client(NodeId node) {
  for (auto& [id, client] : cart_clients_) {
    if (id == node) return client.get();
  }
  return nullptr;
}

void Cluster::finish_setup() {
  PD_CHECK(!setup_done_, "finish_setup called twice");
  setup_done_ = true;
  // With every tenant's host scope known, drop the conservative all-pairs
  // lookahead matrix for the communication-graph one before the handshake
  // traffic below is posted (shared pairs keep their direct edges, so the
  // handshakes themselves stay legal).
  refresh_lookahead_matrix();
  for (auto& a : nodes_) {
    for (auto& b : nodes_) {
      if (a->id() < b->id()) {
        // Pairs with no shared tenant exchange no traffic — skip the RC
        // mesh (at 16–64 nodes the full mesh is the memory bill, and the
        // missing pools are what licenses the tightened lookahead matrix).
        if (!tenants_shared(a->id(), b->id())) continue;
        a->dataplane().connect_peer(b->id());
        b->dataplane().connect_peer(a->id());
      }
    }
  }
  psim_.run();  // drain connection setup traffic across all shards
}

NodeId Cluster::placement_of(FunctionId fn) const {
  auto it = placement_.find(fn);
  PD_CHECK(it != placement_.end(), "function " << fn << " not placed");
  return it->second;
}

FunctionInstance& Cluster::instance(FunctionId fn) {
  auto* inst = instances_.find(fn);
  PD_CHECK(inst != nullptr, "no instance for function " << fn);
  return **inst;
}

void Cluster::provision_replicas(FunctionId fn, int extra) {
  PD_CHECK(extra >= 0, "negative replica count");
  WorkerNode& node = worker(placement_of(fn));
  FunctionInstance& inst = instance(fn);
  for (int i = 0; i < extra; ++i) inst.add_replica(node.assign_core());
}

std::vector<FunctionId> Cluster::deployed_functions() const {
  std::vector<FunctionId> out;
  out.reserve(instances_.size());
  instances_.for_each([&out](FunctionId fn, const auto&) { out.push_back(fn); });
  std::sort(out.begin(), out.end());
  return out;
}

bool Cluster::inject_request(FunctionId entry, NodeId node_id,
                             std::uint32_t chain_id, std::uint64_t request_id,
                             sim::Core* entry_core) {
  const Chain& chain = chains_.by_id(chain_id);
  WorkerNode& node = worker(node_id);
  auto& pool = node.memory().by_tenant(chain.tenant).pool();
  const mem::Actor entry_actor = mem::actor_function(entry);

  // Leave SRQ headroom: the engine's replenisher allocates receive
  // buffers from this same pool, and an open-loop injector that drains it
  // to zero starves the receive path permanently (priority inversion).
  if (pool.available() <=
      static_cast<std::size_t>(config_.engine.srq_fill)) {
    return false;
  }
  auto d = pool.allocate(entry_actor);
  if (!d.has_value()) return false;

  core::MessageHeader h;
  h.request_id = request_id;
  h.src_fn = entry.value();
  h.dst_fn = chain.hops.front().fn.value();
  h.chain_id = chain_id;
  h.hop_index = 0;
  h.client_id = entry.value();
  h.payload_len = chain.request_payload;
  core::trace_start(h, "ingress",
                    "node" + std::to_string(node_id.value()) + "/client",
                    scheduler_for(node_id).now());
  auto span = pool.access(*d, entry_actor);
  core::write_header(span, h);
  const auto sized =
      pool.resize(*d, entry_actor, core::message_bytes(chain.request_payload));

  io_send(entry, node_id,
          entry_core != nullptr ? *entry_core : node.cpu().core(0), sized);
  return true;
}

void Cluster::io_send(FunctionId src, NodeId node_id, sim::Core& src_core,
                      const mem::BufferDescriptor& d, bool precharged) {
  WorkerNode& node = worker(node_id);
  auto& pool = node.memory().by_pool(d.pool).pool();
  const core::MessageHeader h =
      core::read_header(pool.access(d, mem::actor_function(src)));
  const FunctionId dst = h.dst();

  // Tenant security model (§3.1): shared-memory descriptor passing is only
  // allowed within a tenant (= mutually trusting chain). A cross-tenant
  // destination gets an explicit CPU copy into the destination tenant's
  // pool — the sidecar's access-control point.
  const TenantId dst_tenant = tenant_of_function(dst);
  if (dst_tenant.valid() && dst_tenant != d.tenant) {
    cross_domain_send(src, node_id, src_core, d, dst, dst_tenant);
    return;
  }

  // Unified I/O library: routing query + descriptor packing, plus the
  // lightweight sidecar's policy check (§3.1).
  const bool broker_all = node.brokers_local();

  auto dispatch = [this, src, dst, node_id, d, &node, &src_core, &pool,
                   precharged, broker_all] {
    if (!broker_all && node.intra_routes().is_local(dst)) {
      pool.transfer(d, mem::actor_function(src), mem::actor_function(dst));
      node.local_ipc().send(dst, d, precharged ? nullptr : &src_core);
    } else {
      node.dataplane().submit(src, src_core, d, precharged);
    }
  };
  if (precharged) {
    dispatch();
    return;
  }
  sim::ProfileScope scope{"ipc", "io_send", d.tenant.value()};
  src_core.submit(cost::kIoLibraryNs + cost::kSidecarNs, dispatch);
}

sim::Duration Cluster::send_cost(NodeId node_id, FunctionId dst) {
  WorkerNode& node = worker(node_id);
  const sim::Duration channel = node.intra_routes().is_local(dst)
                                    ? cost::kSkMsgSendNs
                                    : node.dataplane().ingest_cost();
  return cost::kIoLibraryNs + cost::kSidecarNs + channel;
}

TenantId Cluster::tenant_of_function(FunctionId fn) const {
  const auto* inst = instances_.find(fn);
  return inst == nullptr ? TenantId::invalid() : (*inst)->spec().tenant;
}

void Cluster::cross_domain_send(FunctionId src, NodeId node_id,
                                sim::Core& src_core,
                                const mem::BufferDescriptor& d,
                                FunctionId dst, TenantId dst_tenant) {
  WorkerNode& node = worker(node_id);
  auto& src_pool = node.memory().by_pool(d.pool).pool();
  auto& dst_pool = node.memory().by_tenant(dst_tenant).pool();
  const auto src_actor = mem::actor_function(src);

  core::MessageHeader h = core::read_header(src_pool.access(d, src_actor));
  const std::uint32_t len = core::message_bytes(h.payload_len);

  auto copy = dst_pool.allocate(src_actor);
  PD_CHECK(copy.has_value(),
           "destination tenant pool exhausted on cross-domain send");
  {
    auto dst_span = dst_pool.access(*copy, src_actor);
    auto src_span = src_pool.access(d, src_actor);
    PD_CHECK(len <= dst_span.size(), "cross-domain message exceeds buffer");
    std::memcpy(dst_span.data(), src_span.data(), len);
  }
  const auto sized = dst_pool.resize(*copy, src_actor, len);
  src_pool.release(d, src_actor);

  // The copy itself burns CPU — exactly why same-tenant chains avoid it.
  const auto copy_ns =
      cost::kCopyBaseNs + static_cast<sim::Duration>(
                              static_cast<double>(len) * cost::kCopyColdPerByteNs);
  sim::ProfileScope scope{"ipc", "cross_domain_copy", sized.tenant.value()};
  src_core.submit(copy_ns + cost::kIoLibraryNs + cost::kSidecarNs,
                  [this, src, dst, node_id, sized, &node, &src_core,
                   &dst_pool] {
                    if (node.intra_routes().is_local(dst)) {
                      dst_pool.transfer(sized, mem::actor_function(src),
                                        mem::actor_function(dst));
                      node.local_ipc().send(dst, sized, &src_core);
                    } else {
                      node.dataplane().submit(src, src_core, sized);
                    }
                  });
}

}  // namespace pd::runtime
