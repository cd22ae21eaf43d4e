// Simulated switched fabric: full-duplex node ports connected through a
// cut-through switch (the testbed's 200 Gbps network, §4).
//
// Serialization happens on the sender's egress link and the receiver's
// ingress link (so incast contention shows up where it would on hardware);
// propagation + switch hop latency are constants from the cost model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "fabric/topology.hpp"
#include "proto/cost_model.hpp"
#include "sim/event_fn.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace pd::fabric {

/// A unidirectional serializing link: frames queue behind each other at
/// `bandwidth` and exit the far end `propagation` later. The link is only
/// the serialization queue; whoever transmits schedules what happens at
/// the exit.
///
/// Fault hooks (driven by the chaos controller): a link can be
/// administratively down (every frame dropped) or lossy (each frame
/// independently dropped with probability `loss`, drawn from the owning
/// switch's seeded fault stream so runs replay bit-identically).
class Link {
 public:
  Link(sim::Scheduler& sched, BitsPerSec bandwidth, sim::Duration propagation);

  /// Enqueue `bytes` now and return the absolute time its last bit exits
  /// the far end (queue + transfer + propagation), or nullopt when the
  /// frame was dropped by a down/lossy link — loss is silent at this
  /// layer, exactly like a wire.
  [[nodiscard]] std::optional<sim::TimePoint> transmit(Bytes bytes);

  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool down() const { return down_; }
  void set_loss(double p, sim::Rng* rng) {
    loss_ = p;
    fault_rng_ = rng;
  }

  [[nodiscard]] Bytes bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }
  /// Backlog currently queued on the link, in ns of serialization time.
  [[nodiscard]] sim::Duration backlog() const;

 private:
  sim::Scheduler& sched_;
  BitsPerSec bandwidth_;
  sim::Duration propagation_;
  sim::TimePoint busy_until_ = 0;
  Bytes bytes_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  bool down_ = false;
  double loss_ = 0.0;
  sim::Rng* fault_rng_ = nullptr;  ///< non-null only while loss_ > 0
};

/// Per-frame wire overhead (Ethernet + IB/RoCE headers).
inline constexpr Bytes kWireOverheadBytes = 90;

/// Minimum latency between an event on one node and its earliest possible
/// effect on another, through this fabric: egress serialization (>= 1 ns by
/// transfer_time's rounding) + propagation to the switch + the switch hop.
/// This is the conservative lookahead the parallel simulation runs on; the
/// receiver-side serialization and remaining propagation only add to it.
[[nodiscard]] constexpr sim::Duration cross_node_lookahead() {
  return 1 + cost::kFabricPropagationNs / 2 + cost::kSwitchLatencyNs;
}

class Switch {
 public:
  explicit Switch(sim::Scheduler& sched,
                  BitsPerSec port_bandwidth = cost::kFabricBandwidthBps)
      : sched_(sched), port_bandwidth_(port_bandwidth) {}

  /// Attach a node; creates its full-duplex port.
  void attach(NodeId node);
  /// Shard-aware attach: the port's links (and the frame arrivals at it)
  /// belong to `sched` — the scheduler shard owning the node. With the
  /// default overload every port shares the switch's scheduler.
  void attach(NodeId node, sim::Scheduler& sched);
  [[nodiscard]] bool attached(NodeId node) const;

  /// Delivery hook for the parallel simulation: posts `fn` to the shard
  /// owning `dst` at absolute time `t`. Every frame's arrival at the
  /// receiver's port goes through it (ParallelSim::post turns a post to
  /// the running shard into a local event). Without a hook, arrivals are
  /// scheduled on the `dst` port's own scheduler.
  /// The callable is passed by reference down to the hook's final owner
  /// (a mailbox or a scheduler slab), so it is relocated only there.
  using RemotePost =
      std::function<void(NodeId dst, sim::TimePoint t, sim::EventFn&& fn)>;
  void set_remote_post(RemotePost post) { remote_post_ = std::move(post); }
  /// Run `fn` at absolute time `t` on the scheduler owning `dst`'s port,
  /// through the delivery hook.
  void post(NodeId dst, sim::TimePoint t, sim::EventFn&& fn) {
    post(port(dst), t, std::move(fn));
  }

  /// Multi-switch topology (ISSUE 9). Not owned; must outlive the switch.
  /// Null (the default) keeps the flat single-switch fabric byte-identical
  /// to pre-topology trees. Cross-leaf frames pay the topology's extra
  /// path cost (spine hops + oversubscribed uplink serialization) — a pure
  /// per-pair function, so port state stays owner-shard-local.
  void set_topology(const Topology* topo) { topo_ = topo; }
  [[nodiscard]] const Topology* topology() const { return topo_; }

  /// Minimum latency from an event on `from` to its earliest possible
  /// effect on `to` through this fabric: cross_node_lookahead() plus the
  /// topology's minimum extra path cost for the pair. The per-shard-pair
  /// lookahead matrix of the parallel simulation is the floor of this
  /// over the nodes each shard hosts (DESIGN.md §15).
  [[nodiscard]] sim::Duration min_path_latency(NodeId from, NodeId to) const {
    return cross_node_lookahead() +
           (topo_ != nullptr ? topo_->min_extra_latency(from, to) : 0);
  }

  /// Deliver `bytes` (payload; wire overhead added internally) from one
  /// attached node to another. `delivered` fires at the receiver when the
  /// frame's last bit exits its ingress link.
  void send(NodeId from, NodeId to, Bytes bytes, sim::EventFn delivered);

  // --- fault hooks ----------------------------------------------------------

  /// Take a node's full-duplex port down (both directions) or bring it
  /// back. While down every frame to or from the node is dropped.
  void set_node_down(NodeId node, bool down);
  [[nodiscard]] bool node_down(NodeId node);

  /// Per-frame loss probability on a node's port (both directions).
  /// Draws come from the port's own seeded fault stream; reseed with
  /// `set_fault_seed` before arming loss for reproducible plans.
  void set_node_loss(NodeId node, double p);

  /// Reseed the loss draws: every port gets a fresh stream derived from
  /// (seed, node), so draws stay owner-shard-local yet replay identically
  /// for a given seed.
  void set_fault_seed(std::uint64_t seed);

  /// Frames accepted by their egress link (dropped frames not counted).
  [[nodiscard]] std::uint64_t frames() const;
  /// Frames dropped by down/lossy ports, summed over all links.
  [[nodiscard]] std::uint64_t frames_dropped() const;

 private:
  struct Port {
    NodeId node{};
    /// Scheduler shard owning this port; all of the port's state (links,
    /// rng, frames) is only ever touched from it.
    sim::Scheduler* sched = nullptr;
    std::unique_ptr<Link> tx;
    std::unique_ptr<Link> rx;
    /// Per-port loss-draw stream.
    sim::Rng rng{0};
    std::uint64_t frames = 0;  ///< frames accepted at egress
    /// Resource-ledger names, e.g. "fabric/node1/tx" (cached: the ledger
    /// charge sites run per frame).
    std::string tx_res;
    std::string rx_res;
  };

  Port& port(NodeId node);
  void post(Port& dst, sim::TimePoint t, sim::EventFn&& fn);
  [[nodiscard]] sim::Rng port_fault_stream(NodeId node) const;
  /// Resource-ledger charges (ISSUE 10): serialization occupancy + queue
  /// wait + wire bytes on a port link, attributed to the tenant carried by
  /// the sender's profile frame. `backlog` is the link's queue depth read
  /// *before* the transmit that this frame was accepted by. The egress
  /// variant also charges the oversubscribed spine-uplink serialization
  /// for cross-leaf frames. No-ops without an enabled ledger.
  void charge_tx(const Port& src, NodeId to, Bytes wire_bytes,
                 sim::Duration backlog, std::int64_t tenant);
  void charge_rx(const Port& dst, Bytes wire_bytes, sim::Duration backlog,
                 std::int64_t tenant);

  sim::Scheduler& sched_;
  BitsPerSec port_bandwidth_;
  /// Held by pointer: arrivals in flight keep a Port* across attaches.
  IdTable<NodeId, std::unique_ptr<Port>> ports_;
  std::uint64_t fault_seed_ = 0xFA17ED5EEDULL;
  RemotePost remote_post_;
  const Topology* topo_ = nullptr;
};

}  // namespace pd::fabric
