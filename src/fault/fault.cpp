#include "fault/fault.hpp"

#include <sstream>

#include "obs/hub.hpp"
#include "sim/profile.hpp"

namespace pd::fault {

namespace {
/// Dark time for link-down / crash, and window length for loss.
constexpr sim::Duration kMinOutage = 200'000;
constexpr sim::Duration kMaxOutage = 2'000'000;
/// Frame-loss probability range for a loss window.
constexpr double kMinLoss = 0.05;
constexpr double kMaxLoss = 0.5;
/// Engine-stall duration range.
constexpr sim::Duration kMinStall = 100'000;
constexpr sim::Duration kMaxStall = 1'000'000;
static_assert(kMinStall <= kMaxStall);
}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkLoss: return "link_loss";
    case FaultKind::kQpFail: return "qp_fail";
    case FaultKind::kSrqDrain: return "srq_drain";
    case FaultKind::kEngineStall: return "engine_stall";
    case FaultKind::kNodeCrash: return "node_crash";
  }
  return "?";
}

FaultPlan FaultPlan::generate(std::uint64_t seed,
                              const std::vector<NodeId>& nodes,
                              FaultPlanConfig cfg) {
  PD_CHECK(!nodes.empty(), "fault plan needs at least one target node");
  PD_CHECK(cfg.min_gap <= cfg.max_gap, "inverted fault plan bounds");
  FaultPlan plan;
  plan.seed = seed;
  sim::Rng rng(seed);

  auto draw = [&rng](sim::Duration lo, sim::Duration hi) {
    return static_cast<sim::Duration>(
        rng.uniform(static_cast<std::uint64_t>(lo),
                    static_cast<std::uint64_t>(hi)));
  };

  // Episodes are laid out sequentially (gap, episode, gap, …) so two
  // faults never overlap — a crash restoring a port that a concurrent
  // link-down is still holding dark would make recovery ambiguous.
  sim::TimePoint t = cfg.start;
  for (int i = 0; i < cfg.episodes; ++i) {
    t += draw(cfg.min_gap, cfg.max_gap);
    if (t >= cfg.horizon) break;

    FaultEvent e;
    e.at = t;
    e.kind = static_cast<FaultKind>(rng.uniform(0, 5));
    e.node = nodes[rng.uniform(0, nodes.size() - 1)];
    switch (e.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kNodeCrash:
        e.duration = draw(kMinOutage, kMaxOutage);
        break;
      case FaultKind::kLinkLoss:
        e.duration = draw(kMinOutage, kMaxOutage);
        e.loss = kMinLoss + (kMaxLoss - kMinLoss) * rng.next_double();
        break;
      case FaultKind::kQpFail:
        if (nodes.size() > 1) {
          // Pick a distinct peer; NodeId{} (invalid) would mean "all".
          NodeId peer = e.node;
          while (peer == e.node) {
            peer = nodes[rng.uniform(0, nodes.size() - 1)];
          }
          e.peer = peer;
        }
        break;
      case FaultKind::kSrqDrain:
        break;
      case FaultKind::kEngineStall:
        e.duration = draw(kMinStall, kMaxStall);
        break;
    }
    t += e.duration;
    plan.events.push_back(e);
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "fault plan seed=" << seed << " (" << events.size() << " episodes)\n";
  for (const FaultEvent& e : events) {
    out << "  t=" << e.at << "ns " << to_string(e.kind) << " node="
        << e.node.value();
    if (e.peer.valid()) out << " peer=" << e.peer.value();
    if (e.duration > 0) out << " dur=" << e.duration << "ns";
    if (e.loss > 0) out << " loss=" << e.loss;
    out << "\n";
  }
  return out.str();
}

ChaosController::ChaosController(runtime::Cluster& cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)) {
  if (cluster_.rdma_net() != nullptr) {
    // Frame-loss draws belong to the chaos replay, not the workload's
    // stream: reseed the fabric's fault RNG from the plan.
    cluster_.rdma_net()->fabric().set_fault_seed(plan_.seed ^
                                                 0x5EEDFA17ED000000ULL);
  }
}

void ChaosController::record_state(const FaultEvent& e, double v,
                                   sim::TimePoint t) {
  if (auto* rec = cluster_.flight_recorder(e.node)) {
    rec->series("chaos.active_faults",
                "node=" + std::to_string(e.node.value()))
        .record(t, v);
  }
}

void ChaosController::arm_state_series(const FaultEvent& e,
                                       sim::Scheduler& owner) {
  // Episodes never overlap (the plan lays them out sequentially), so a
  // 0/1 edge series per node is an exact fault-state timeline. The two
  // points of an instantaneous fault share a timestamp; FIFO tie-break
  // preserves the 1-then-0 order.
  owner.schedule_background_at(e.at,
                               [this, e] { record_state(e, 1.0, e.at); });
  const bool pulse =
      e.kind == FaultKind::kQpFail || e.kind == FaultKind::kSrqDrain;
  const sim::TimePoint tend = pulse ? e.at : e.at + e.duration;
  owner.schedule_background_at(
      tend, [this, e, tend] { record_state(e, 0.0, tend); });
}

void ChaosController::count(const FaultEvent& e) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  if (auto* hub = obs::hub()) {
    hub->registry
        .counter("chaos.faults_injected",
                 std::string("kind=") + to_string(e.kind))
        .inc();
  }
}

void ChaosController::arm() {
  PD_CHECK(!armed_, "chaos plan armed twice");
  armed_ = true;
  // Every fault is pre-split at arm time (before the run starts) into
  // per-shard events that fire at the plan's times. Each piece executes on the scheduler that owns the state it mutates —
  // a node's fabric port, RNIC, and engine core all live on the node's
  // shard — so chaos never writes across shards, and because the whole
  // timeline is scheduled up front its per-shard event order is fixed by
  // the plan, not by thread interleaving. Same seed, same replay, for any
  // --threads value.
  auto* net = cluster_.rdma_net();
  for (const FaultEvent& e : plan_.events) {
    sim::Scheduler& owner = cluster_.scheduler_for(e.node);
    owner.schedule_background_at(e.at, [this, e] { count(e); });
    arm_state_series(e, owner);
    switch (e.kind) {
      case FaultKind::kLinkDown:
        PD_CHECK(net != nullptr, "link fault on a non-RDMA cluster");
        owner.schedule_background_at(e.at, [this, e] {
          cluster_.rdma_net()->fabric().set_node_down(e.node, true);
        });
        owner.schedule_background_at(e.at + e.duration, [this, e] {
          cluster_.rdma_net()->fabric().set_node_down(e.node, false);
        });
        break;
      case FaultKind::kLinkLoss:
        PD_CHECK(net != nullptr, "link fault on a non-RDMA cluster");
        owner.schedule_background_at(e.at, [this, e] {
          cluster_.rdma_net()->fabric().set_node_loss(e.node, e.loss);
        });
        owner.schedule_background_at(e.at + e.duration, [this, e] {
          cluster_.rdma_net()->fabric().set_node_loss(e.node, 0.0);
        });
        break;
      case FaultKind::kQpFail:
        PD_CHECK(net != nullptr, "qp fault on a non-RDMA cluster");
        owner.schedule_background_at(e.at, [this, e] {
          auto* n = cluster_.rdma_net();
          if (n->has_rnic(e.node)) n->rnic(e.node).fail_qps(e.peer);
        });
        if (e.peer.valid()) {
          cluster_.scheduler_for(e.peer).schedule_background_at(
              e.at, [this, e] {
                auto* n = cluster_.rdma_net();
                if (n->has_rnic(e.peer)) n->rnic(e.peer).fail_qps(e.node);
              });
        }
        break;
      case FaultKind::kSrqDrain:
        PD_CHECK(net != nullptr, "srq fault on a non-RDMA cluster");
        owner.schedule_background_at(e.at, [this, e] {
          auto* n = cluster_.rdma_net();
          if (n->has_rnic(e.node)) n->rnic(e.node).drain_all_srqs();
        });
        break;
      case FaultKind::kEngineStall:
        owner.schedule_background_at(e.at, [this, e] {
          sim::ProfileScope scope{"fault", "engine_stall"};
          cluster_.worker(e.node).engine_core().submit(e.duration);
        });
        break;
      case FaultKind::kNodeCrash: {
        PD_CHECK(net != nullptr, "crash fault on a non-RDMA cluster");
        PD_CHECK(cluster_.has_worker(e.node), "unknown worker " << e.node);
        owner.schedule_background_at(e.at, [this, e] {
          cluster_.rdma_net()->fabric().set_node_down(e.node, true);
        });
        // fail_node_qps(), split: each RNIC drops its QPs to the crashed
        // node on its own shard (the crashed node drops everything).
        for (NodeId n : net->rnic_nodes()) {
          cluster_.scheduler_for(n).schedule_background_at(
              e.at, [this, e, n] {
                auto* rn = cluster_.rdma_net();
                if (n == e.node) {
                  rn->rnic(n).fail_qps();
                } else {
                  rn->rnic(n).fail_qps(e.node);
                }
              });
        }
        owner.schedule_background_at(e.at + e.duration, [this, e] {
          cluster_.rdma_net()->fabric().set_node_down(e.node, false);
        });
        break;
      }
    }
  }
}

}  // namespace pd::fault
