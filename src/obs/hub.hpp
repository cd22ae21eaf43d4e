// Per-thread observability hub.
//
// Instrumentation sites deep in the data plane (engine, RNIC, function
// runtime) reach the tracer, metrics registry and ledger through obs::hub()
// rather than through constructor plumbing. A runtime::Cluster owns one hub
// per simulator shard and installs it on the thread executing that shard,
// so recording never crosses threads; a null hub (outside any run) makes
// every instrumentation site a single-branch no-op. The hub's ledger is the
// one busy-time instrument: the exact profile (flamegraph) and the
// per-tenant resource accounting fold into the same cells.
//
// Usage:
//   runtime::Cluster cluster(psim, cfg);
//   cluster.enable_shard_tracing(1);    // instruments: Cluster::enable_*
//   ... run simulation ...
//   obs::Hub hub;
//   cluster.merge_observability(hub);   // fold the shard hubs
//   hub.tracer.write_chrome_json("trace.json");
#pragma once

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace pd::obs {

struct Hub {
  Registry registry;
  Tracer tracer{&registry};
  SloWatchdog slo{&registry};
  FlightRecorder timeseries;
  Ledger ledger;
};

/// This thread's installed hub, or nullptr when observability is off.
[[nodiscard]] Hub* hub();

/// Install `h` as THIS thread's hub (nullptr uninstalls). The parallel
/// simulation's shard enter/leave hooks use this so each shard records
/// into its own registry with no cross-thread sharing; the shards' hubs are
/// merged deterministically after the run.
Hub* install_thread_hub(Hub* h);

}  // namespace pd::obs
