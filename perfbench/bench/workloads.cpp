#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/message.hpp"
#include "core/trace_hooks.hpp"
#include "ingress/palladium_ingress.hpp"
#include "obs/critpath.hpp"
#include "obs/hub.hpp"
#include "proto/http.hpp"
#include "requests.hpp"
#include "runtime/boutique.hpp"
#include "runtime/cluster.hpp"
#include "runtime/function.hpp"
#include "runtime/statestore.hpp"
#include "sim/parallel.hpp"
#include "stats.hpp"
#include "workload/http_client.hpp"

namespace perfbench {
namespace {

using namespace pd;
using Clock = std::chrono::steady_clock;
using runtime::OnlineBoutique;

constexpr std::int64_t kMs = 1'000'000;
/// Idle time after the drain before buffer pools are audited.
constexpr std::int64_t kSettleNs = 1 * kMs;

enum class Kind { kShop, kTenants, kScale };

/// Fixed shape of one workload. Everything here is part of the benchmark
/// definition: changing it changes what is measured.
struct Spec {
  Kind kind;
  std::size_t shards;
  unsigned threads;
  int nodes;
  std::size_t nodes_per_switch;  ///< 0 = flat fabric
  std::int64_t warm_ns;
  std::int64_t window_ns;
  std::int64_t slice_ns;  ///< run_until granularity (counters sampled here)
  std::int64_t slo_ns;    ///< primary-class latency limit
  std::uint64_t trace_every;
};

Spec spec_for(const std::string& name) {
  if (name == "shop_2node") {
    return {Kind::kShop, 3, 1, 2, 0, 50 * kMs, 300 * kMs, 10 * kMs, 500'000,
            10};
  }
  if (name == "tenants_dwrr") {
    return {Kind::kTenants, 3, 1, 2, 0, 20 * kMs, 2000 * kMs, 10 * kMs,
            200'000, 20};
  }
  if (name == "scale_32node") {
    return {Kind::kScale, 5, 4, 32, 8, 20 * kMs, 100 * kMs, 10 * kMs, 750'000,
            20};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

// --- shop_2node ------------------------------------------------------------

struct Page {
  const char* target;
  std::uint32_t chain;
  int clients;
};
// Classes 0-1 (read pages, one-sided READ of the cart) are primary; 2 is
// the CAS→FAA→WRITE→CAS write ladder, 3 the longest RPC chain.
const Page kShopPages[] = {
    {"/home", OnlineBoutique::kHomeQuery, 3},
    {"/viewcart", OnlineBoutique::kViewCart, 3},
    {"/addtocart", OnlineBoutique::kAddToCart, 2},
    {"/checkout", OnlineBoutique::kCheckoutChain, 2},
};
constexpr std::uint32_t kShopPrimaryClasses = 2;

// --- tenants_dwrr ----------------------------------------------------------

struct TenantLoad {
  std::uint32_t weight;
  OpenLoopPoisson::Shape shape;
};
// Engine capacity is pinned by extra_per_msg_ns (as fig15_multitenancy
// does): the busier engine is ~76 % busy at the 92K req/s mean load, so it
// saturates near 120K req/s. Where the sub-ms surges of tenants 2 and 3
// overlap, the offered load (~130K req/s) goes above that and DWRR decides
// who waits. Surges are short and frequent so that one window holds
// thousands of them and the tails are steady across seeds. Tenant 1
// (weight 6) is steady and primary. At the 100 µs default retransmit
// timeout these designed bursts set off retransmits and goodput collapses,
// so the timeout is 1 ms.
constexpr std::int64_t kEngineExtraNs = 300;
constexpr std::int64_t kRetransmitTimeoutNs = 1 * kMs;
const TenantLoad kTenants[] = {
    {6, {.rate_rps = 60'000}},
    {1, {.rate_rps = 7'000, .surge_factor = 4.0, .surge_period_ns = 1 * kMs,
         .surge_on_ns = 200'000, .surge_phase_ns = 0}},
    {2, {.rate_rps = 14'000, .surge_factor = 3.0, .surge_period_ns = 1'200'000,
         .surge_on_ns = 300'000, .surge_phase_ns = 500'000}},
};

// --- scale_32node ----------------------------------------------------------

constexpr std::size_t kScaleCells = 16;
constexpr int kScaleClients = 128;

/// IngressFrontend decorator that stamps every HTTP request it forwards and
/// closes it in a RequestLog when the response comes back. The closed-loop
/// HttpLoadGen keeps one request in flight per connection, so the open
/// request of a connection is unambiguous.
class TimedFrontend : public ingress::IngressFrontend {
 public:
  TimedFrontend(ingress::PalladiumIngress& inner, sim::Scheduler& sched,
                RequestLog& log, std::uint32_t cls)
      : inner_(inner), sched_(sched), log_(log), cls_(cls) {}

  int attach_client(NodeId client_node, sim::Core& client_core,
                    std::function<void(std::string_view)> to_client) override {
    const std::size_t slot = open_.size();
    open_.push_back(kNone);
    const int conn = inner_.attach_client(
        client_node, client_core,
        [this, slot, cb = std::move(to_client)](std::string_view bytes) {
          on_response(slot, bytes);
          cb(bytes);
        });
    slot_of_.emplace(conn, slot);
    return conn;
  }

  void client_send(int client, std::string bytes) override {
    open_[slot_of_.at(client)] = log_.open(sched_.now(), cls_);
    inner_.client_send(client, std::move(bytes));
  }

  void expose_chain(std::string target, std::uint32_t chain_id) override {
    inner_.expose_chain(std::move(target), chain_id);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void on_response(std::size_t slot, std::string_view bytes) {
    proto::HttpResponseParser parser;
    const bool ok = parser.feed(bytes).first == proto::ParseStatus::kComplete &&
                    parser.message().status == 200;
    if (open_[slot] != kNone) log_.close(open_[slot], sched_.now(), ok);
    open_[slot] = kNone;
  }

  ingress::PalladiumIngress& inner_;
  sim::Scheduler& sched_;
  RequestLog& log_;
  std::uint32_t cls_;
  std::vector<std::size_t> open_;  ///< per attached connection
  std::unordered_map<int, std::size_t> slot_of_;
};

/// Open-loop tenant load injected straight into the data plane on one
/// node's scheduler shard: seeded Poisson arrivals, each request timed from
/// its scheduled send.
class TenantGenerator {
 public:
  TenantGenerator(runtime::Cluster& cluster, FunctionId entry, NodeId node,
                  std::uint32_t chain_id, std::uint32_t cls,
                  const OpenLoopPoisson::Shape& shape, std::uint64_t seed,
                  RequestLog& log)
      : cluster_(cluster),
        sched_(cluster.scheduler_for(node)),
        entry_(entry),
        node_(node),
        chain_id_(chain_id),
        cls_(cls),
        core_(cluster.worker(node).assign_core()),
        shape_(shape),
        seed_(seed),
        log_(log) {
    cluster_.register_entry(entry_, cluster_.chains().by_id(chain_id_).tenant,
                            node_, core_,
                            [this](const mem::BufferDescriptor& d) {
                              on_response(d);
                            });
  }

  /// Begin arrivals at the current simulated time (after setup, which
  /// advances the clock).
  void start() {
    arrivals_.emplace(shape_, seed_, sched_.now());
    arm();
  }
  void stop() { running_ = false; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }

 private:
  void arm() {
    const std::int64_t due = arrivals_->next_send();
    sched_.schedule_at(due, [this, due] { fire(due); });
  }

  void fire(std::int64_t due) {
    if (!running_) return;
    const std::size_t idx = log_.open(due, cls_);
    ++sent_;
    // The request id is the log index plus one (id 0 is never used on the
    // wire), so the response finds its entry without a lookup table.
    if (!cluster_.inject_request(entry_, node_, chain_id_, idx + 1, &core_)) {
      ++refused_;
      log_.close(idx, sched_.now(), false);
    }
    arm();
  }

  void on_response(const mem::BufferDescriptor& d) {
    auto& pool = cluster_.worker(node_).memory().by_pool(d.pool).pool();
    const core::MessageHeader h =
        core::read_header(pool.access(d, mem::actor_function(entry_)));
    core::trace_finish(h, sched_.now());
    pool.release(d, mem::actor_function(entry_));
    const auto idx = static_cast<std::size_t>(h.request_id - 1);
    if (log_.entries()[idx].done_ns >= 0) {
      ++duplicates_;  // a retransmit race answered twice; the first counts
      return;
    }
    const bool ok = !h.is_error();
    ok ? ++completed_ : ++errors_;
    log_.close(idx, sched_.now(), ok);
  }

  runtime::Cluster& cluster_;
  sim::Scheduler& sched_;
  FunctionId entry_;
  NodeId node_;
  std::uint32_t chain_id_;
  std::uint32_t cls_;
  sim::Core& core_;
  OpenLoopPoisson::Shape shape_;
  std::uint64_t seed_;
  std::optional<OpenLoopPoisson> arrivals_;
  RequestLog& log_;
  bool running_ = true;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t duplicates_ = 0;
};

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Library counters read at the measured window's boundaries.
struct Snapshot {
  std::uint64_t events = 0, epochs = 0, skip_ahead = 0, mailbox = 0,
                barrier_ns = 0;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t tx = 0, rx = 0, retransmits = 0, shed = 0, error_compl = 0;
  std::vector<std::int64_t> engine_busy;  ///< per worker
  std::uint64_t wrs = 0, payload = 0, cache_miss = 0, rnr = 0, conn_est = 0;
  std::uint64_t fn_invocations = 0;
  std::int64_t fn_compute_ns = 0, host_busy_ns = 0;
  std::uint64_t st_reads = 0, st_updates = 0, st_acquires = 0,
                st_conflicts = 0, st_errors = 0, st_fallbacks = 0;
  std::uint64_t frames = 0, frames_dropped = 0;
  std::uint64_t dma_transfers = 0, dma_bytes = 0;
};

Snapshot snapshot(runtime::Cluster& c, sim::ParallelSim& psim) {
  Snapshot s;
  s.events = psim.events_processed();
  s.epochs = psim.epochs();
  s.skip_ahead = psim.skip_ahead_epochs();
  s.mailbox = psim.mailbox_msgs();
  s.barrier_ns = psim.barrier_wait_ns();
  for (std::size_t k = 0; k < psim.shard_count(); ++k) {
    s.shard_events.push_back(psim.shard(k).events_processed());
  }
  for (const auto& node : c.workers()) {
    if (core::NetworkEngine* eng = node->palladium_engine()) {
      const core::EngineCounters& ec = eng->counters();
      s.tx += ec.tx_msgs;
      s.rx += ec.rx_msgs;
      s.retransmits += ec.retransmits;
      s.shed += ec.requests_shed;
      s.error_compl += ec.error_completions;
      s.conn_est += eng->connections().stats().establishments;
    }
    s.engine_busy.push_back(node->engine_core().busy_ns());
    if (rdma::Rnic* rnic = node->rnic()) {
      const rdma::RnicCounters& rc = rnic->counters();
      s.wrs += rc.sends + rc.writes + rc.reads + rc.atomics + rc.fetch_adds;
      s.payload += rc.payload_bytes;
      s.cache_miss += rc.cache_miss_wrs;
      s.rnr += rc.rnr_events;
    }
    s.host_busy_ns += node->cpu().total_busy_ns();
    if (dpu::Dpu* dpu = node->dpu()) {
      s.dma_transfers += dpu->dma().transfers();
      s.dma_bytes += dpu->dma().bytes_moved();
    }
    if (runtime::CartStoreClient* sc = c.cart_client(node->id())) {
      const auto& cc = sc->counters();
      s.st_reads += cc.reads;
      s.st_updates += cc.updates;
      s.st_acquires += cc.cas_acquires;
      s.st_conflicts += cc.cas_conflicts;
      s.st_errors += cc.errors;
    }
  }
  for (FunctionId fn : c.deployed_functions()) {
    runtime::FunctionInstance& inst = c.instance(fn);
    s.fn_invocations += inst.invocations();
    s.fn_compute_ns += inst.compute_ns_total();
    s.st_fallbacks += inst.store_fallbacks();
  }
  if (c.rdma_net() != nullptr) {
    s.frames = c.rdma_net()->fabric().frames();
    s.frames_dropped = c.rdma_net()->fabric().frames_dropped();
  }
  return s;
}

/// One repetition's live objects, in construction order (destroyed in
/// reverse by teardown()).
struct Rig {
  explicit Rig(Spec s) : spec(s) {}

  Spec spec;
  std::unique_ptr<sim::ParallelSim> psim;
  std::unique_ptr<runtime::Cluster> cluster;
  std::unique_ptr<ingress::PalladiumIngress> gateway;
  std::vector<std::unique_ptr<TimedFrontend>> frontends;
  std::vector<std::unique_ptr<workload::HttpLoadGen>> http;
  std::vector<std::unique_ptr<TenantGenerator>> tenants;
  RequestLog log;
  std::vector<std::uint32_t> secondary_classes;
  std::uint32_t primary_classes = 0;  ///< classes [0, n) are primary

  void teardown() {
    tenants.clear();
    http.clear();
    frontends.clear();
    gateway.reset();
    cluster.reset();
    psim.reset();
  }
};

void build(Rig& rig, std::uint64_t seed) {
  const Spec& sp = rig.spec;
  rig.psim = std::make_unique<sim::ParallelSim>(sp.shards, sp.threads);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  cfg.seed = derive_seed(seed, 0);
  if (sp.kind == Kind::kTenants) {
    cfg.pool_buffers = 4096;
    cfg.buffer_bytes = 4096;
    cfg.engine.extra_per_msg_ns = kEngineExtraNs;
    cfg.engine.srq_fill = 512;
    cfg.engine.retransmit_timeout = kRetransmitTimeoutNs;
  } else if (sp.kind == Kind::kScale) {
    cfg.pool_buffers = 2048;
    cfg.topology.nodes_per_switch = sp.nodes_per_switch;
    cfg.shard_mapping = runtime::ShardMapping::kLeafPerShard;
  }
  rig.cluster = std::make_unique<runtime::Cluster>(*rig.psim, cfg);
  for (int i = 0; i < sp.nodes; ++i) {
    rig.cluster->add_worker(NodeId{static_cast<std::uint32_t>(1 + i)});
  }
}

/// Deploy functions and chains (and, for tenants_dwrr, the generators that
/// register their entries). Returns the scale workload's cells.
std::vector<OnlineBoutique::Cell> deploy(Rig& rig, std::uint64_t seed) {
  runtime::Cluster& c = *rig.cluster;
  switch (rig.spec.kind) {
    case Kind::kShop:
      OnlineBoutique::deploy(c, kNode1, kNode2, /*cart_store=*/true);
      c.enable_cart_store(kNode2);
      return {};
    case Kind::kTenants: {
      std::uint32_t cls = 0;
      for (const TenantLoad& t : kTenants) {
        const TenantId tenant{cls + 1};
        const FunctionId server{cls + 1};
        c.add_tenant(tenant, t.weight);
        c.deploy(runtime::FunctionSpec{server, "echo", tenant}, kNode2);
        c.add_chain(runtime::Chain{tenant.value(), "echo", tenant, 64,
                                   {{server, 1'000, 64}}});
        rig.tenants.push_back(std::make_unique<TenantGenerator>(
            c, FunctionId{1000 + tenant.value()}, kNode1, tenant.value(), cls,
            t.shape, derive_seed(seed, 1 + cls), rig.log));
        ++cls;
      }
      return {};
    }
    case Kind::kScale: {
      std::vector<NodeId> nodes;
      for (const auto& w : c.workers()) nodes.push_back(w->id());
      return OnlineBoutique::deploy_cells(c, nodes, kScaleCells);
    }
  }
  return {};
}

std::string cell_route(std::uint32_t cell) {
  return "/home#" + std::to_string(cell);
}

void add_gateway(Rig& rig, const std::vector<OnlineBoutique::Cell>& cells) {
  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 2;
  if (rig.spec.kind == Kind::kScale) {
    // 128 closed-loop clients on two gateway workers: the 2 ms at-least-once
    // deadline would turn queueing into a retry storm (as in perf_gate).
    icfg.request_deadline = 0;
  }
  rig.gateway = std::make_unique<ingress::PalladiumIngress>(*rig.cluster, icfg);
  if (rig.spec.kind == Kind::kShop) {
    for (const Page& p : kShopPages) rig.gateway->expose_chain(p.target, p.chain);
  } else {
    for (const auto& cell : cells) {
      rig.gateway->expose_chain(cell_route(cell.index), cell.home_query);
    }
  }
  rig.gateway->finish_setup();
}

void start_load(Rig& rig) {
  sim::Scheduler& edge = rig.psim->shard(0);
  const auto add_http = [&](const std::string& target, int clients,
                            std::uint32_t cls) {
    rig.frontends.push_back(
        std::make_unique<TimedFrontend>(*rig.gateway, edge, rig.log, cls));
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = target;
    wcfg.body = R"({"session":"u-1234","currency":"EUR"})";
    wcfg.client_cores = clients;
    rig.http.push_back(std::make_unique<workload::HttpLoadGen>(
        edge, *rig.frontends.back(), wcfg));
    rig.http.back()->add_clients(clients);
  };
  switch (rig.spec.kind) {
    case Kind::kShop: {
      std::uint32_t cls = 0;
      for (const Page& p : kShopPages) add_http(p.target, p.clients, cls++);
      rig.primary_classes = kShopPrimaryClasses;
      rig.secondary_classes = {2, 3};
      break;
    }
    case Kind::kTenants:
      for (auto& g : rig.tenants) g->start();
      rig.primary_classes = 1;
      rig.secondary_classes = {1, 2};
      break;
    case Kind::kScale: {
      const int per_cell = kScaleClients / static_cast<int>(kScaleCells);
      for (std::uint32_t cell = 0; cell < kScaleCells; ++cell) {
        add_http(cell_route(cell), per_cell, cell);
        rig.secondary_classes.push_back(cell);
      }
      rig.primary_classes = kScaleCells;
      break;
    }
  }
}

void stop_load(Rig& rig) {
  for (auto& g : rig.http) g->stop();
  for (auto& g : rig.tenants) g->stop();
}

/// Latest simulated time over all shards. Setup drains each shard to its
/// own quiescent time; the first run_until aligns them.
std::int64_t sim_now(sim::ParallelSim& psim) {
  std::int64_t t = 0;
  for (std::size_t k = 0; k < psim.shard_count(); ++k) {
    t = std::max(t, psim.shard(k).now());
  }
  return t;
}

/// Peaks sampled at every slice boundary of the measured window.
struct Peaks {
  std::size_t tx_backlog = 0;
  std::size_t pending = 0;
  double pool_use_ratio = 0;
};

void sample_peaks(Rig& rig, Peaks& pk) {
  std::size_t in_use = 0, capacity = 0;
  for (const auto& node : rig.cluster->workers()) {
    if (core::NetworkEngine* eng = node->palladium_engine()) {
      pk.tx_backlog = std::max(pk.tx_backlog, eng->tx_backlog());
    }
    for (const auto& tm : node->memory().pools()) {
      in_use += tm->pool().in_use();
      capacity += tm->pool().capacity();
    }
  }
  pk.pool_use_ratio = std::max(
      pk.pool_use_ratio,
      ratio(static_cast<double>(in_use), static_cast<double>(capacity)));
  if (rig.gateway) {
    pk.pending = std::max(pk.pending, rig.gateway->pending_requests());
  }
}

/// Advance the simulation to `until` in slices of the spec's length, one
/// benchmark span per slice, sampling peaks after each and recording each
/// slice's wall seconds when asked.
void run_slices(Rig& rig, std::int64_t until, SpanLog* spans,
                std::uint32_t parent, Peaks* pk,
                std::vector<double>* slice_s = nullptr) {
  while (sim_now(*rig.psim) < until) {
    const std::int64_t next =
        std::min(until, sim_now(*rig.psim) + rig.spec.slice_ns);
    const auto t = Clock::now();
    {
      ScopedSpan s(spans, "run_until", parent);
      rig.psim->run_until(next);
    }
    if (slice_s != nullptr) slice_s->push_back(secs(t, Clock::now()));
    if (pk != nullptr) sample_peaks(rig, *pk);
  }
}

/// Occupancy of every worker pool (creation order) and, last, the summed
/// occupancy of the gateway's pools; plus the total backing footprint.
struct PoolState {
  std::vector<std::size_t> in_use;
  double footprint = 0;
};

PoolState pool_state(Rig& rig) {
  PoolState st;
  for (const auto& node : rig.cluster->workers()) {
    for (const auto& tm : node->memory().pools()) {
      st.in_use.push_back(tm->pool().in_use());
      st.footprint += static_cast<double>(tm->pool().footprint());
    }
  }
  if (rig.gateway) {
    // The gateway keeps its pools private. With no pool clock attached a
    // pool reports slot_ns(now) = in_use · now, so a ledger filled by
    // collect_pool_slot_ns yields the summed occupancy and footprint.
    obs::Ledger led;
    led.set_enabled(true);
    rig.gateway->collect_pool_slot_ns(led);
    const obs::Ledger::Totals t = led.totals(obs::LedgerKind::kPool);
    const auto now = static_cast<std::uint64_t>(rig.psim->shard(0).now());
    st.in_use.push_back(now > 0 ? static_cast<std::size_t>(t.busy_ns / now) : 0);
    st.footprint += static_cast<double>(t.bytes);
  }
  return st;
}

void check(RepResult& r, bool ok, const std::string& what) {
  if (!ok) r.violations.push_back(what);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"shop_2node", "tenants_dwrr",
                                              "scale_32node"};
  return names;
}

unsigned workload_threads(const std::string& workload) {
  return spec_for(workload).threads;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (0xD1B54A32D192ED03ULL * (stream + 1)));
  return mix.next();
}

RepResult run_rep(const Options& opts, SpanLog* spans) {
  RepResult r;
  Rig rig(spec_for(opts.workload));
  const Spec& sp = rig.spec;
  ScopedSpan rep_span(spans, "rep " + opts.workload);
  const std::uint32_t rep_id = rep_span.id();

  // --- setup: construction to Cluster::finish_setup() returning ----------
  const auto t_build = Clock::now();
  {
    ScopedSpan s(spans, "setup.build", rep_id);
    build(rig, opts.seed);
  }
  const auto t_deploy = Clock::now();
  std::vector<OnlineBoutique::Cell> cells;
  {
    ScopedSpan s(spans, "setup.deploy", rep_id);
    cells = deploy(rig, opts.seed);
  }
  const auto t_ingress = Clock::now();
  if (sp.kind != Kind::kTenants) {
    ScopedSpan s(spans, "setup.ingress", rep_id);
    add_gateway(rig, cells);
  }
  const auto t_connect = Clock::now();
  {
    ScopedSpan s(spans, "setup.connect", rep_id);
    rig.cluster->finish_setup();
  }
  const auto t_ready = Clock::now();
  r.wall["setup_s"] = secs(t_build, t_ready);
  r.wall["setup.build_s"] = secs(t_build, t_deploy);
  r.wall["setup.deploy_s"] = secs(t_deploy, t_ingress);
  r.wall["setup.ingress_s"] = secs(t_ingress, t_connect);
  r.wall["setup.connect_s"] = secs(t_connect, t_ready);
  const PoolState idle_pools = pool_state(rig);
  const double rss_setup = rss_mib();
  r.wall["mem.rss_after_setup_mib"] = rss_setup;

  if (opts.traced) {
    rig.cluster->enable_shard_tracing(sp.trace_every);
    rig.cluster->enable_shard_profiling();
  }

  // --- warm-up, then the measured window ----------------------------------
  sim::ParallelSim& psim = *rig.psim;
  start_load(rig);
  const std::int64_t t0 = sim_now(psim) + sp.warm_ns;
  {
    ScopedSpan s(spans, "warmup", rep_id);
    run_slices(rig, t0, spans, s.id(), nullptr);
  }
  const Snapshot s0 = snapshot(*rig.cluster, psim);
  const std::int64_t t1 = t0 + sp.window_ns;
  Peaks peaks;
  const auto w0 = Clock::now();
  {
    ScopedSpan s(spans, "window", rep_id);
    run_slices(rig, t1, spans, s.id(), &peaks, &r.window_slice_s);
  }
  const auto w1 = Clock::now();
  const Snapshot s1 = snapshot(*rig.cluster, psim);
  const double window_wall = secs(w0, w1);

  {
    ScopedSpan s(spans, "drain", rep_id);
    stop_load(rig);
    psim.run();
    // Let the engines' periodic replenishers re-post their receive buffers.
    psim.run_until(sim_now(psim) + kSettleNs);
  }
  r.wall["mem.run_growth_mib"] = rss_mib() - rss_setup;

  // --- end-to-end metrics ---------------------------------------------------
  const auto& log = rig.log.entries();
  const double window_s = static_cast<double>(sp.window_ns) / 1e9;
  const ClassSummary all = summarize(log, t0, t1, sp.slo_ns,
                                     [](std::uint32_t) { return true; });
  const std::uint32_t np = rig.primary_classes;
  const ClassSummary primary = summarize(
      log, t0, t1, sp.slo_ns, [np](std::uint32_t c) { return c < np; });
  std::int64_t worst_secondary = 0;
  for (std::uint32_t cls : rig.secondary_classes) {
    const ClassSummary s = summarize(
        log, t0, t1, sp.slo_ns, [cls](std::uint32_t c) { return c == cls; });
    check(r, s.ok > 0, "secondary class " + std::to_string(cls) +
                           " completed nothing in the window");
    worst_secondary = std::max(worst_secondary, s.p99_ns);
  }
  const std::uint64_t finished = finished_in(log, t0, t1);
  r.attempted = all.attempted;
  r.failed = all.attempted - all.ok;
  r.modeled["model_rps"] = static_cast<double>(all.ok) / window_s;
  r.modeled["p50_us"] = static_cast<double>(primary.p50_ns) / 1e3;
  r.modeled["p99_us"] = static_cast<double>(primary.p99_ns) / 1e3;
  r.modeled["secondary_p99_us"] = static_cast<double>(worst_secondary) / 1e3;
  r.modeled["ok_ratio"] = ratio(static_cast<double>(all.ok),
                                static_cast<double>(all.attempted));
  r.modeled["slo_ok_ratio"] = ratio(static_cast<double>(primary.slo_ok),
                                    static_cast<double>(primary.attempted));
  r.wall["sim_req_per_wall_s"] = ratio(static_cast<double>(finished), window_wall);

  // --- per-layer metrics ----------------------------------------------------
  const std::uint64_t reqs = finished;
  const double window_ns = static_cast<double>(sp.window_ns);
  const std::uint64_t events = s1.events - s0.events;
  r.window_requests = reqs;
  r.window_events = events;
  auto& k = r.counts;
  k["sim.events_per_req"] = per_req(s1.events, s0.events, reqs);
  k["sim.events_per_sim_s"] = static_cast<double>(events) / window_s;
  r.wall["sim.wall_ns_per_event"] =
      ratio(window_wall * 1e9, static_cast<double>(events));
  k["pdes.epochs_per_sim_s"] =
      static_cast<double>(s1.epochs - s0.epochs) / window_s;
  k["pdes.skip_ahead_share"] =
      ratio(static_cast<double>(s1.skip_ahead - s0.skip_ahead),
            static_cast<double>(s1.epochs - s0.epochs));
  k["pdes.mailbox_msgs_per_req"] = per_req(s1.mailbox, s0.mailbox, reqs);
  r.wall["pdes.barrier_wait_share"] =
      ratio(static_cast<double>(s1.barrier_ns - s0.barrier_ns) / 1e9,
            static_cast<double>(psim.os_threads()) * window_wall);
  {
    std::uint64_t max_ev = 0, sum_ev = 0;
    for (std::size_t i = 0; i < s1.shard_events.size(); ++i) {
      const std::uint64_t e = s1.shard_events[i] - s0.shard_events[i];
      max_ev = std::max(max_ev, e);
      sum_ev += e;
    }
    k["pdes.shard_events_max_over_mean"] =
        ratio(static_cast<double>(max_ev) *
                  static_cast<double>(s1.shard_events.size()),
              static_cast<double>(sum_ev));
  }

  // Buffer ownership: after the drain every pool must be back at its
  // post-setup occupancy (the receive buffers the engines keep posted), so
  // no request leaked a slot.
  const PoolState after = pool_state(rig);
  check(r, after.in_use == idle_pools.in_use,
        "buffer pools did not return to their post-setup occupancy");
  k["mem.pool_footprint_mib"] = after.footprint / (1024.0 * 1024.0);
  k["mem.pool_peak_use_ratio"] = peaks.pool_use_ratio;

  k["core.tx_msgs_per_req"] = per_req(s1.tx, s0.tx, reqs);
  k["core.rx_msgs_per_req"] = per_req(s1.rx, s0.rx, reqs);
  {
    std::int64_t busiest = 0;
    for (std::size_t i = 0; i < s1.engine_busy.size(); ++i) {
      busiest = std::max(busiest, s1.engine_busy[i] - s0.engine_busy[i]);
    }
    k["core.engine_busy_share"] = static_cast<double>(busiest) / window_ns;
  }
  k["core.tx_backlog_peak"] = static_cast<double>(peaks.tx_backlog);
  k["core.retransmits"] = static_cast<double>(s1.retransmits);
  k["core.requests_shed"] = static_cast<double>(s1.shed);
  k["core.error_completions"] = static_cast<double>(s1.error_compl);

  k["rdma.wrs_per_req"] = per_req(s1.wrs, s0.wrs, reqs);
  k["rdma.payload_bytes_per_req"] = per_req(s1.payload, s0.payload, reqs);
  k["rdma.cache_miss_wr_share"] =
      ratio(static_cast<double>(s1.cache_miss - s0.cache_miss),
            static_cast<double>(s1.wrs - s0.wrs));
  k["rdma.rnr_events"] = static_cast<double>(s1.rnr);
  k["conn.establishments"] = static_cast<double>(s1.conn_est);

  k["fn.invocations_per_req"] =
      per_req(s1.fn_invocations, s0.fn_invocations, reqs);
  k["fn.compute_us_per_req"] =
      ratio(static_cast<double>(s1.fn_compute_ns - s0.fn_compute_ns) / 1e3,
            static_cast<double>(reqs));
  k["cpu.host_busy_share"] = ratio(
      static_cast<double>(s1.host_busy_ns - s0.host_busy_ns),
      window_ns * static_cast<double>(sp.nodes) *
          static_cast<double>(rig.cluster->config().cpu_cores_per_node));
  k["store.reads_per_req"] = per_req(s1.st_reads, s0.st_reads, reqs);
  k["store.updates_per_req"] = per_req(s1.st_updates, s0.st_updates, reqs);
  k["store.cas_conflict_ratio"] =
      ratio(static_cast<double>(s1.st_conflicts - s0.st_conflicts),
            static_cast<double>(s1.st_acquires - s0.st_acquires));
  k["store.fallbacks"] = static_cast<double>(s1.st_fallbacks);
  k["store.errors"] = static_cast<double>(s1.st_errors);

  k["fabric.frames_per_req"] = per_req(s1.frames, s0.frames, reqs);
  k["fabric.frames_dropped"] = static_cast<double>(s1.frames_dropped);
  k["dpu.dma_transfers_per_req"] =
      per_req(s1.dma_transfers, s0.dma_transfers, reqs);
  k["dpu.dma_bytes_per_req"] = per_req(s1.dma_bytes, s0.dma_bytes, reqs);

  std::uint64_t sent = 0, completed = 0, errors = 0, refused = 0,
                duplicates = 0;
  for (const auto& g : rig.http) {
    sent += g->sent();
    completed += g->completed();
    errors += g->errors();
  }
  for (const auto& g : rig.tenants) {
    sent += g->sent();
    completed += g->completed();
    errors += g->errors();
    refused += g->refused();
    duplicates += g->duplicates();
  }
  const ingress::PalladiumIngress* gw = rig.gateway.get();
  k["ingress.retries"] = gw ? static_cast<double>(gw->retries()) : 0;
  k["ingress.timeouts"] = gw ? static_cast<double>(gw->timeouts()) : 0;
  k["ingress.bad_gateway"] = gw ? static_cast<double>(gw->bad_gateway()) : 0;
  k["ingress.pending_peak"] = static_cast<double>(peaks.pending);
  k["ingress.workers"] = gw ? static_cast<double>(gw->active_workers()) : 0;
  k["workload.sent"] = static_cast<double>(sent);
  k["workload.completed"] = static_cast<double>(completed);
  k["workload.errors"] = static_cast<double>(errors);
  k["workload.refused"] = static_cast<double>(refused);
  k["workload.duplicates"] = static_cast<double>(duplicates);

  // --- run invariants ---------------------------------------------------------
  check(r, sent == completed + errors + refused,
        "silent loss: sent " + std::to_string(sent) + " != completed " +
            std::to_string(completed) + " + errors " + std::to_string(errors) +
            " + refused " + std::to_string(refused));
  check(r, rig.log.open_count() == 0, "requests still open after the drain");
  check(r, all.attempted > 0 && primary.attempted > 0,
        "no primary requests in the measured window");
  check(r, r.modeled["ok_ratio"] >= 0.999,
        "ok_ratio below 0.999: " + std::to_string(r.modeled["ok_ratio"]));

  // --- traced run: merge shard hubs, critical-path breakdown -----------------
  if (opts.traced) {
    obs::Hub merged;
    {
      ScopedSpan s(spans, "merge_observability", rep_id);
      rig.cluster->merge_observability(merged);
    }
    check(r, merged.tracer.open_spans() == 0,
          "open trace spans after the drain: " +
              std::to_string(merged.tracer.open_spans()));
    const auto read = obs::to_read_spans(merged.tracer.spans());
    for (const auto& [label, q] : {std::pair{"p50", 0.50}, {"p99", 0.99}}) {
      const obs::CritPathReport rep = obs::analyze(read, q);
      check(r, rep.traces > 0, "critical path saw no complete trace");
      std::int64_t by_class[6] = {0, 0, 0, 0, 0, 0};
      for (const obs::PathSegment& seg : rep.q_breakdown) {
        by_class[static_cast<int>(seg.cls)] += seg.ns;
      }
      std::int64_t sum = 0;
      for (std::int64_t v : by_class) sum += v;
      check(r, sum == rep.q_total_ns,
            std::string("critpath ") + label + " parts do not sum exactly");
      const std::string pre = std::string("crit.") + label + ".";
      const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
      r.crit[pre + "service_us"] = us(by_class[int(obs::HopClass::kService)] +
                                      by_class[int(obs::HopClass::kPolicy)]);
      r.crit[pre + "queue_us"] = us(by_class[int(obs::HopClass::kQueue)]);
      r.crit[pre + "transport_us"] = us(by_class[int(obs::HopClass::kTransport)]);
      r.crit[pre + "rdma_us"] = us(by_class[int(obs::HopClass::kRdma)]);
      r.crit[pre + "dma_us"] = us(by_class[int(obs::HopClass::kDma)]);
      r.crit[std::string("crit.") + label + "_us"] = us(rep.q_total_ns);
    }
  }

  {
    ScopedSpan s(spans, "teardown", rep_id);
    rig.teardown();
  }
  return r;
}

}  // namespace perfbench
