#include "fabric/fabric.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "obs/hub.hpp"
#include "sim/profile.hpp"

namespace pd::fabric {

Link::Link(sim::Scheduler& sched, BitsPerSec bandwidth,
           sim::Duration propagation)
    : sched_(sched), bandwidth_(bandwidth), propagation_(propagation) {
  PD_CHECK(bandwidth_ > 0, "link bandwidth must be positive");
  PD_CHECK(propagation_ >= 0, "negative propagation");
}

sim::Duration Link::backlog() const {
  return std::max<sim::Duration>(0, busy_until_ - sched_.now());
}

std::optional<sim::TimePoint> Link::transmit(Bytes bytes) {
  if (down_ || (loss_ > 0.0 && fault_rng_ != nullptr && fault_rng_->chance(loss_))) {
    ++frames_dropped_;
    return std::nullopt;  // the frame dies on the wire
  }
  const sim::Duration serialization = sim::transfer_time(bytes, bandwidth_);
  busy_until_ = std::max(busy_until_, sched_.now()) + serialization;
  bytes_sent_ += bytes;
  return busy_until_ + propagation_;
}

void Switch::attach(NodeId node) { attach(node, sched_); }

void Switch::attach(NodeId node, sim::Scheduler& sched) {
  PD_CHECK(!attached(node), "node " << node << " already attached");
  auto p = std::make_unique<Port>();
  p->node = node;
  p->sched = &sched;
  p->tx = std::make_unique<Link>(sched, port_bandwidth_,
                                 cost::kFabricPropagationNs / 2);
  p->rx = std::make_unique<Link>(sched, port_bandwidth_,
                                 cost::kFabricPropagationNs / 2);
  p->rng = port_fault_stream(node);
  p->tx_res = "fabric/node" + std::to_string(node.value()) + "/tx";
  p->rx_res = "fabric/node" + std::to_string(node.value()) + "/rx";
  ports_.insert(node, std::move(p));
}

sim::Rng Switch::port_fault_stream(NodeId node) const {
  // A pure function of (seed, node): independent of attach order and of
  // how many draws other ports have consumed — the sharded replay
  // property.
  return sim::Rng(fault_seed_ ^
                  (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(
                                                node.value()) +
                                            1)));
}

void Switch::set_fault_seed(std::uint64_t seed) {
  fault_seed_ = seed;
  ports_.for_each([this](NodeId node, std::unique_ptr<Port>& p) {
    p->rng = port_fault_stream(node);
  });
}

std::uint64_t Switch::frames() const {
  std::uint64_t total = 0;
  ports_.for_each(
      [&](NodeId, const std::unique_ptr<Port>& p) { total += p->frames; });
  return total;
}

bool Switch::attached(NodeId node) const {
  return ports_.contains(node);
}

Switch::Port& Switch::port(NodeId node) {
  std::unique_ptr<Port>* p = ports_.find(node);
  PD_CHECK(p != nullptr, "node " << node << " not attached to fabric");
  return **p;
}

void Switch::post(Port& dst, sim::TimePoint t, sim::EventFn&& fn) {
  if (remote_post_) {
    remote_post_(dst.node, t, std::move(fn));
  } else {
    dst.sched->schedule_at(t, std::move(fn));
  }
}

void Switch::set_node_down(NodeId node, bool down) {
  Port& p = port(node);
  p.tx->set_down(down);
  p.rx->set_down(down);
}

bool Switch::node_down(NodeId node) { return port(node).tx->down(); }

void Switch::set_node_loss(NodeId node, double p) {
  PD_CHECK(p >= 0.0 && p <= 1.0, "loss probability out of range: " << p);
  Port& port_ref = port(node);
  // The port's own stream keeps draws owner-shard-local.
  sim::Rng* rng = p > 0.0 ? &port_ref.rng : nullptr;
  port_ref.tx->set_loss(p, rng);
  port_ref.rx->set_loss(p, rng);
}

std::uint64_t Switch::frames_dropped() const {
  std::uint64_t total = 0;
  ports_.for_each([&](NodeId, const std::unique_ptr<Port>& p) {
    total += p->tx->frames_dropped() + p->rx->frames_dropped();
  });
  return total;
}

void Switch::charge_tx(const Port& src, NodeId to, Bytes wire_bytes,
                       sim::Duration backlog, std::int64_t tenant) {
  auto* h = obs::hub();
  if (h == nullptr || !h->ledger.enabled()) return;
  obs::Ledger& led = h->ledger;
  const sim::TimePoint now = src.sched->now();
  const sim::Duration ser = sim::transfer_time(wire_bytes, port_bandwidth_);
  if (backlog > 0) {
    led.wait(obs::LedgerKind::kLink, src.tx_res, tenant, now, now + backlog);
  }
  led.occupy(obs::LedgerKind::kLink, src.tx_res, tenant, now + backlog,
             now + backlog + ser, now);
  led.add_bytes(obs::LedgerKind::kLink, src.tx_res, tenant, wire_bytes);
  if (topo_ != nullptr) {
    const sim::Duration up =
        topo_->uplink_serialization(src.node, to, wire_bytes, port_bandwidth_);
    if (up > 0) {
      const std::string res = "fabric/uplink/l" +
                              std::to_string(topo_->leaf_of(src.node)) + "-l" +
                              std::to_string(topo_->leaf_of(to));
      led.occupy(obs::LedgerKind::kUplink, res, tenant, now, now + up);
      led.add_bytes(obs::LedgerKind::kUplink, res, tenant, wire_bytes);
    }
  }
}

void Switch::charge_rx(const Port& dst, Bytes wire_bytes,
                       sim::Duration backlog, std::int64_t tenant) {
  auto* h = obs::hub();
  if (h == nullptr || !h->ledger.enabled()) return;
  obs::Ledger& led = h->ledger;
  const sim::TimePoint now = dst.sched->now();
  const sim::Duration ser = sim::transfer_time(wire_bytes, port_bandwidth_);
  if (backlog > 0) {
    led.wait(obs::LedgerKind::kLink, dst.rx_res, tenant, now, now + backlog);
  }
  led.occupy(obs::LedgerKind::kLink, dst.rx_res, tenant, now + backlog,
             now + backlog + ser, now);
  led.add_bytes(obs::LedgerKind::kLink, dst.rx_res, tenant, wire_bytes);
}

void Switch::send(NodeId from, NodeId to, Bytes bytes,
                  sim::EventFn delivered) {
  PD_CHECK(from != to, "fabric send to self (use intra-node IPC)");
  Port& src = port(from);
  Port& dst = port(to);
  const Bytes wire_bytes = bytes + kWireOverheadBytes;
  // Attribution tenant of this frame, carried by the sender's profile frame
  // (the RNIC wraps its fabric sends in a "rnic"/"wire" scope); -1 when the
  // send is unscoped control traffic.
  const std::int64_t lt = sim::current_profile_frame().tenant;
  // Single cut-through hop within a leaf; cross-leaf frames additionally
  // pay the topology's spine detour (extra hops + inter-switch legs + the
  // oversubscribed uplink serialization). Zero extra reproduces the flat
  // fabric exactly.
  const sim::Duration hop =
      cost::kSwitchLatencyNs +
      (topo_ != nullptr
           ? topo_->extra_latency(from, to, wire_bytes, port_bandwidth_)
           : 0);

  // The drop decision and the egress serialization queue are sender-owned
  // state, so the frame's arrival at the receiver's port is known here at
  // send time. Post it NOW, while the whole egress serialization +
  // propagation + switch hop (>= cross_node_lookahead()) still lies ahead:
  // that is the lookahead bound the parallel simulation's epochs rely on
  // when the receiver lives on another shard.
  const sim::Duration tx_backlog = src.tx->backlog();
  const auto egress_exit = src.tx->transmit(wire_bytes);
  if (!egress_exit) return;  // dropped at egress
  charge_tx(src, to, wire_bytes, tx_backlog, lt);
  ++src.frames;
  post(dst, *egress_exit + hop,
       [this, dstp = &dst, wire_bytes, lt,
        done = std::move(delivered)]() mutable {
         const sim::Duration rx_backlog = dstp->rx->backlog();
         const auto at = dstp->rx->transmit(wire_bytes);
         if (!at) return;  // dropped at ingress
         dstp->sched->schedule_at(*at, std::move(done));
         charge_rx(*dstp, wire_bytes, rx_backlog, lt);
       });
}

}  // namespace pd::fabric
