// Snapshot-export of every data-plane counter into an obs::Registry.
//
// Components keep their own cheap counters on the hot path (EngineCounters,
// RnicCounters, ConnectionStats, ...); this module copies them into named,
// label-tagged registry instruments at dump time. Pull-at-snapshot avoids
// the dangling-probe hazard of self-registration: a cluster can be destroyed
// before (or after) the registry without either holding pointers into the
// other.
#pragma once

#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"

namespace pd::runtime {

/// Copy all counters from `cluster` into `reg` (set-style: idempotent,
/// callable repeatedly — e.g. once per measurement window).
///
/// Exported keys (labels `node=<id>`, pools add `tenant=<id>`):
///   engine.{tx_msgs,rx_msgs,recycled,replenished,drops_no_route}
///   engine.tx_backlog (gauge)
///   rnic.{sends,recvs,writes,atomics,rnr_events,cache_miss_wrs,payload_bytes}
///   conn.{establishments,activations,deactivations,sends,reestablishments}
///   dma.{transfers,bytes_moved}             (DPU-equipped nodes only)
///   pool.{in_use,capacity} (gauges)
///   fabric.{frames,frames_dropped}          (unlabelled, cluster-wide;
///                                            frames counts the frames
///                                            their egress link accepted)
void export_metrics(Cluster& cluster, obs::Registry& reg);

}  // namespace pd::runtime
