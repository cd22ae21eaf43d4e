#include "fabric/topology.hpp"

#include "proto/cost_model.hpp"

namespace pd::fabric {

static_assert(cost::kUplinkOversubscription >= 1.0);
static_assert(cost::kInterSwitchPropagationNs >= 0);

void Topology::configure(TopologyConfig cfg) { cfg_ = cfg; }

void Topology::assign(NodeId node, std::uint32_t leaf) {
  leaf_[node] = leaf;
}

std::uint32_t Topology::leaf_of(NodeId node) const {
  auto it = leaf_.find(node);
  return it == leaf_.end() ? 0 : it->second;
}

sim::Duration Topology::extra_latency(NodeId a, NodeId b, Bytes wire_bytes,
                                      BitsPerSec port_bandwidth) const {
  if (!multi_switch()) return 0;
  const std::uint32_t la = leaf_of(a);
  const std::uint32_t lb = leaf_of(b);
  if (la == lb) return 0;
  // leaf -> spine -> leaf: two extra cut-through hops, two inter-switch
  // propagation legs, and one serialization pass at the uplink's
  // oversubscribed per-flow share.
  return 2 * cost::kSwitchLatencyNs + 2 * cost::kInterSwitchPropagationNs +
         sim::transfer_time(wire_bytes,
                            port_bandwidth / cost::kUplinkOversubscription);
}

sim::Duration Topology::uplink_serialization(NodeId a, NodeId b,
                                             Bytes wire_bytes,
                                             BitsPerSec port_bandwidth) const {
  if (!multi_switch() || leaf_of(a) == leaf_of(b)) return 0;
  return sim::transfer_time(wire_bytes,
                            port_bandwidth / cost::kUplinkOversubscription);
}

sim::Duration Topology::min_extra_between_leaves(std::uint32_t a,
                                                 std::uint32_t b) const {
  if (!multi_switch() || a == b) return 0;
  return 2 * cost::kSwitchLatencyNs + 2 * cost::kInterSwitchPropagationNs + 1;
}

}  // namespace pd::fabric
