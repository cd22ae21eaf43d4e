#include "control/cartstore_bench.hpp"

#include <cstdio>
#include <memory>

#include "common/check.hpp"
#include "ingress/palladium_ingress.hpp"
#include "rdma/rnic.hpp"
#include "runtime/boutique.hpp"
#include "runtime/function.hpp"
#include "runtime/statestore.hpp"
#include "sim/parallel.hpp"
#include "workload/http_client.hpp"

namespace pd::control {

using namespace pd::runtime;

namespace {

constexpr NodeId kHotNode{1};   ///< frontend — runs the store client
constexpr NodeId kColdNode{2};  ///< cart service — hosts the store slab

struct Population {
  const char* target;
  std::uint32_t chain;
  int clients;
};

// Cart-touching pages only: the read-heavy mix the store is for, plus the
// RMW page exercising the CAS ladder. Checkout is deliberately absent —
// its cart visit stays RPC in both modes.
const Population kPages[] = {
    {"/home", OnlineBoutique::kHomeQuery, 8},
    {"/viewcart", OnlineBoutique::kViewCart, 8},
    {"/addtocart", OnlineBoutique::kAddToCart, 4},
};

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(v), comma ? ", " : "");
  out += buf;
}

CartAblationResult::ModeRow run_mode(bool use_store,
                                     const CartAblationOptions& opts) {
  const sim::Duration horizon = opts.seconds * 1'000'000'000;

  // One shard without --threads; edge + two workers across N threads with.
  sim::ParallelSim psim(opts.threads > 0 ? 3 : 1,
                        static_cast<unsigned>(opts.threads));

  ClusterConfig cfg;
  cfg.system = SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 16;
  auto cluster = std::make_unique<Cluster>(psim, cfg);
  sim::Scheduler& sched = cluster->scheduler();
  cluster->add_worker(kHotNode);
  cluster->add_worker(kColdNode);

  OnlineBoutique::deploy(*cluster, kHotNode, kColdNode, use_store);
  if (use_store) cluster->enable_cart_store(kColdNode);

  ingress::PalladiumIngress::Config icfg;
  icfg.initial_workers = 1;
  icfg.max_workers = 4;
  icfg.autoscale = false;
  ingress::PalladiumIngress gateway(*cluster, icfg);
  for (const Population& p : kPages) gateway.expose_chain(p.target, p.chain);
  gateway.finish_setup();
  cluster->finish_setup();

  std::vector<std::unique_ptr<workload::HttpLoadGen>> gens;
  for (const Population& p : kPages) {
    workload::HttpLoadGen::Config wcfg;
    wcfg.target = p.target;
    wcfg.body = R"({"session":"u-1234","currency":"EUR"})";
    wcfg.client_cores = 4;
    gens.push_back(
        std::make_unique<workload::HttpLoadGen>(sched, gateway, wcfg));
    gens.back()->add_clients(p.clients);
  }

  psim.run_until(horizon);
  for (auto& g : gens) g->stop();
  psim.run();

  CartAblationResult::ModeRow row;
  row.mode = use_store ? "store" : "rpc";

  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    workload::HttpLoadGen& g = *gens[i];
    CartAblationResult::ChainRow cr;
    cr.target = kPages[i].target;
    cr.sent = g.sent();
    cr.completed = g.completed();
    cr.errors = g.errors();
    cr.p50_ns = g.completed() > 0 ? g.latencies().quantile(0.50) : 0;
    cr.p99_ns = g.completed() > 0 ? g.latencies().quantile(0.99) : 0;
    sent += cr.sent;
    answered += cr.completed + cr.errors;
    row.chains.push_back(std::move(cr));
  }
  row.zero_loss = sent == answered;

  FunctionInstance& fe = cluster->instance(OnlineBoutique::kFrontend);
  row.store_ops = fe.store_ops();
  row.store_fallbacks = fe.store_fallbacks();
  if (CartStoreClient* sc = cluster->cart_client(kHotNode)) {
    const CartStoreClient::Counters& c = sc->counters();
    row.store_reads = c.reads;
    row.store_updates = c.updates;
    row.store_cas_conflicts = c.cas_conflicts;
    row.store_errors = c.errors;
  }
  const rdma::RnicCounters& nc = cluster->worker(kHotNode).rnic()->counters();
  row.rnic_reads = nc.reads;
  row.rnic_atomics = nc.atomics;
  row.rnic_fetch_adds = nc.fetch_adds;
  row.rnic_access_errors = nc.access_errors;
  row.rnic_atomic_access_errors = nc.atomic_access_errors;

  row.cart_invocations = cluster->instance(OnlineBoutique::kCart).invocations();
  row.store_node_cpu_busy_ns = cluster->worker(kColdNode).cpu().total_busy_ns();
  return row;
}

void mode_json(std::string& out, const CartAblationResult::ModeRow& m,
               bool last) {
  out += "  \"" + m.mode + "\": {\n    ";
  append_u64(out, "zero_loss", m.zero_loss ? 1 : 0, false);
  out += ",\n    \"chains\": [\n";
  for (std::size_t i = 0; i < m.chains.size(); ++i) {
    const CartAblationResult::ChainRow& c = m.chains[i];
    out += "      {\"target\": \"" + c.target + "\", ";
    append_u64(out, "sent", c.sent);
    append_u64(out, "completed", c.completed);
    append_u64(out, "errors", c.errors);
    append_u64(out, "p50_ns", static_cast<std::uint64_t>(c.p50_ns));
    append_u64(out, "p99_ns", static_cast<std::uint64_t>(c.p99_ns), false);
    out += i + 1 < m.chains.size() ? "},\n" : "}\n";
  }
  out += "    ],\n    \"store\": {";
  append_u64(out, "ops", m.store_ops);
  append_u64(out, "fallbacks", m.store_fallbacks);
  append_u64(out, "reads", m.store_reads);
  append_u64(out, "updates", m.store_updates);
  append_u64(out, "cas_conflicts", m.store_cas_conflicts);
  append_u64(out, "errors", m.store_errors, false);
  out += "},\n    \"rnic\": {";
  append_u64(out, "reads", m.rnic_reads);
  append_u64(out, "atomics", m.rnic_atomics);
  append_u64(out, "fetch_adds", m.rnic_fetch_adds);
  append_u64(out, "access_errors", m.rnic_access_errors);
  append_u64(out, "atomic_access_errors", m.rnic_atomic_access_errors, false);
  out += "},\n    ";
  append_u64(out, "cart_invocations", m.cart_invocations);
  append_u64(out, "store_node_cpu_busy_ns",
             static_cast<std::uint64_t>(m.store_node_cpu_busy_ns), false);
  out += last ? "\n  }\n" : "\n  },\n";
}

}  // namespace

CartAblationResult run_cart_ablation(const CartAblationOptions& opts) {
  PD_CHECK(opts.seconds >= 1, "cart ablation needs at least one second");
  CartAblationResult r;
  r.rpc = run_mode(/*use_store=*/false, opts);
  r.store = run_mode(/*use_store=*/true, opts);
  return r;
}

std::string CartAblationResult::json() const {
  std::string out = "{\n";
  mode_json(out, rpc, /*last=*/false);
  mode_json(out, store, /*last=*/true);
  out += "}\n";
  return out;
}

std::string CartAblationResult::table() const {
  char buf[192];
  std::string out = "cart-store ablation (rpc vs one-sided store):\n";
  std::snprintf(buf, sizeof buf, "  %-6s %-12s %10s %10s %10s %10s\n", "mode",
                "page", "sent", "completed", "p50 us", "p99 us");
  out += buf;
  for (const ModeRow* m : {&rpc, &store}) {
    for (const ChainRow& c : m->chains) {
      std::snprintf(buf, sizeof buf,
                    "  %-6s %-12s %10llu %10llu %10.1f %10.1f\n",
                    m->mode.c_str(), c.target.c_str(),
                    static_cast<unsigned long long>(c.sent),
                    static_cast<unsigned long long>(c.completed),
                    static_cast<double>(c.p50_ns) / 1e3,
                    static_cast<double>(c.p99_ns) / 1e3);
      out += buf;
    }
  }
  for (const ModeRow* m : {&rpc, &store}) {
    std::snprintf(
        buf, sizeof buf,
        "  %-6s store ops=%llu fb=%llu reads=%llu updates=%llu conflicts=%llu"
        " | cart invocations=%llu\n",
        m->mode.c_str(), static_cast<unsigned long long>(m->store_ops),
        static_cast<unsigned long long>(m->store_fallbacks),
        static_cast<unsigned long long>(m->store_reads),
        static_cast<unsigned long long>(m->store_updates),
        static_cast<unsigned long long>(m->store_cas_conflicts),
        static_cast<unsigned long long>(m->cart_invocations));
    out += buf;
    std::snprintf(
        buf, sizeof buf,
        "  %-6s rnic reads=%llu cas=%llu faa=%llu denials=%llu"
        " | store-node cpu busy=%.2f ms  zero-loss=%s\n",
        m->mode.c_str(), static_cast<unsigned long long>(m->rnic_reads),
        static_cast<unsigned long long>(m->rnic_atomics),
        static_cast<unsigned long long>(m->rnic_fetch_adds),
        static_cast<unsigned long long>(m->rnic_access_errors +
                                        m->rnic_atomic_access_errors),
        static_cast<double>(m->store_node_cpu_busy_ns) / 1e6,
        m->zero_loss ? "yes" : "NO");
    out += buf;
  }
  return out;
}

}  // namespace pd::control
