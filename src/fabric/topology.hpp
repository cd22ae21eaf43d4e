// Multi-switch fabric topology (ISSUE 9): a two-tier leaf–spine built
// from the cost model, not from shared switch state.
//
// Nodes are assigned to leaf switches; same-leaf traffic takes the
// single cut-through hop the flat fabric always modeled, cross-leaf
// traffic additionally crosses an oversubscribed uplink to a spine and
// back (two extra switch hops, two inter-switch propagation legs, and a
// serialization pass at the uplink's effective per-flow bandwidth =
// port bandwidth / oversubscription). All of that is a pure function of
// (src leaf, dst leaf, frame size), so per-port state stays owner-shard
// local and parallel runs remain deterministic — the uplink is a cost
// model, never a serializing queue shared between shards.
//
// The per-pair *minimum* path latency doubles as the conservative
// lookahead floor of the parallel simulation: distant leaf pairs grant
// each other proportionally larger epoch horizons (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "sim/time.hpp"

namespace pd::fabric {

struct TopologyConfig {
  /// Worker nodes per leaf switch; 0 keeps the legacy single flat switch
  /// (every pair one hop, byte-identical to the pre-topology fabric).
  std::size_t nodes_per_switch = 0;
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(TopologyConfig cfg) { configure(cfg); }

  void configure(TopologyConfig cfg);
  [[nodiscard]] const TopologyConfig& config() const { return cfg_; }
  [[nodiscard]] bool multi_switch() const { return cfg_.nodes_per_switch > 0; }

  /// Pin a node to a leaf switch. Unassigned nodes (clients, the ingress
  /// gateway, every node of a flat topology) live on leaf 0 — the edge
  /// leaf, where the cluster's external uplink terminates.
  void assign(NodeId node, std::uint32_t leaf);
  [[nodiscard]] std::uint32_t leaf_of(NodeId node) const;

  /// Path cost beyond the flat single-switch fabric for one frame of
  /// `wire_bytes` (0 within a leaf): the two extra switch hops, both
  /// inter-switch propagation legs, and the uplink serialization pass at
  /// the oversubscribed effective bandwidth.
  [[nodiscard]] sim::Duration extra_latency(NodeId a, NodeId b,
                                            Bytes wire_bytes,
                                            BitsPerSec port_bandwidth) const;

  /// Just the oversubscribed-uplink serialization component of
  /// extra_latency (0 within a leaf) — the resource ledger charges it to
  /// the sending tenant as spine-uplink byte-ns.
  [[nodiscard]] sim::Duration uplink_serialization(
      NodeId a, NodeId b, Bytes wire_bytes, BitsPerSec port_bandwidth) const;

  /// Lower bound of extra_latency over all frame sizes (transfer_time
  /// rounds up to 1 ns) — the per-pair lookahead contribution.
  [[nodiscard]] sim::Duration min_extra_latency(NodeId a, NodeId b) const {
    return min_extra_between_leaves(leaf_of(a), leaf_of(b));
  }
  [[nodiscard]] sim::Duration min_extra_between_leaves(
      std::uint32_t a, std::uint32_t b) const;

 private:
  TopologyConfig cfg_{};
  std::unordered_map<NodeId, std::uint32_t> leaf_;
};

}  // namespace pd::fabric
