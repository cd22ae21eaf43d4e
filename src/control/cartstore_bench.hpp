// Cart-store ablation (ISSUE 8): the RDMA state store vs the two-sided
// RPC path on the boutique's cart-touching chains.
//
// One run builds the same two-node Palladium deployment twice — once with
// CartService visited over RPC (the seed behaviour) and once with the
// frontend fetching/committing cart records through the one-sided store —
// and reports per-chain p50/p99 plus the counters that prove the
// mechanism: one-sided READ/CAS/FAA counts, cart-service invocations, and
// the store node's host-CPU busy time (which must *drop* in store mode:
// the whole point of one-sided verbs is that the remote CPU never runs).
//
// json() is integer-only and byte-identical across --threads 1/2/4 — the
// artifact tools/golden/cart_store.json pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pd::control {

struct CartAblationOptions {
  /// 0 = one-shard ParallelSim (the serial simulation); N > 0 = edge + one
  /// shard per worker over N OS threads (bit-identical for every N).
  std::size_t threads = 0;
  std::int64_t seconds = 2;
};

struct CartAblationResult {
  struct ChainRow {
    std::string target;  ///< page, e.g. "/viewcart"
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    std::int64_t p50_ns = 0;
    std::int64_t p99_ns = 0;
  };

  struct ModeRow {
    std::string mode;  ///< "rpc" or "store"
    std::vector<ChainRow> chains;  ///< fixed page order
    bool zero_loss = false;

    // Frontend-side store activity (0 in rpc mode).
    std::uint64_t store_ops = 0;
    std::uint64_t store_fallbacks = 0;
    std::uint64_t store_reads = 0;
    std::uint64_t store_updates = 0;
    std::uint64_t store_cas_conflicts = 0;
    std::uint64_t store_errors = 0;

    // Hot-node RNIC verb counters (the one-sided traffic itself).
    std::uint64_t rnic_reads = 0;
    std::uint64_t rnic_atomics = 0;
    std::uint64_t rnic_fetch_adds = 0;
    std::uint64_t rnic_access_errors = 0;
    std::uint64_t rnic_atomic_access_errors = 0;

    /// CartService invocations on the store node (drops to the Checkout
    /// chain's share in store mode) and the store node's host-CPU busy ns.
    std::uint64_t cart_invocations = 0;
    std::int64_t store_node_cpu_busy_ns = 0;
  };

  ModeRow rpc;
  ModeRow store;

  /// Integer-only JSON, byte-identical across thread counts.
  [[nodiscard]] std::string json() const;
  /// Human-readable side-by-side table.
  [[nodiscard]] std::string table() const;
};

/// Run both modes back to back (fresh simulation each).
CartAblationResult run_cart_ablation(const CartAblationOptions& opts);

}  // namespace pd::control
