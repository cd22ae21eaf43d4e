// Per-tenant resource-accounting ledger, busy-time profile, and
// cross-tenant interference attribution.
//
// The ledger attributes every occupancy interval on every shared resource
// — core busy-ns, NIC serialization-ns, SoC DMA bytes, fabric link byte-ns
// (including the oversubscribed spine uplinks), buffer-pool slot-ns, and
// DWRR queue wait — to the owning tenant, with *exact conservation*: the
// per-tenant sums equal the measured totals with zero residual, the same
// discipline as critpath's exact-sum rule. Core and DMA intervals arrive
// through the BusyObserver channel (on_busy); the NIC, fabric, queue, and
// pool sites call the primitives directly.
//
// It is also the exact busy-time profile. A busy cell is keyed by (kind,
// resource, tenant, component, detail): the last two come from the
// charge's ProfileFrame (empty for the primitives). The collapsed-stack
// flamegraph, the profile.* counters and the per-resource busy queries
// read the framed cells; the ledger reports sum the same cells over the
// frame. Busy cells fold whenever the ledger is the installed observer
// (profiling or the ledger on); everything else — waits, blame, the
// primitives — records only while the ledger is enabled.
//
// On top of the occupancy timelines the ledger computes a cross-tenant
// interference matrix: for each wait interval a tenant's message spends
// queued at a shared resource, the blame is charged to the tenant(s) whose
// occupancy segments overlap the wait window — "tenant A imposed X ns of
// queueing on tenant B at resource R". Overlap is taken in event order and
// capped at the wait's length; any uncovered remainder is self-blamed, so
// for every (resource, victim) the blame row sums *exactly* to the
// measured wait. All state is integer nanoseconds and merged in sorted-key
// order, so reports are byte-identical across --threads 1/2/4.
//
// The ledger only records — it never schedules events — so enabling it
// can never perturb simulation results.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/profile.hpp"
#include "sim/time.hpp"

namespace pd::obs {

class Registry;

/// Resource classes the ledger accounts. Values index kind-rollup tables
/// and name the `kind=` label of the ledger.* metrics.
enum class LedgerKind : std::uint8_t {
  kCore,    ///< CPU / DPU-Arm / engine cores (busy + queue wait)
  kDma,     ///< SoC DMA engine (busy + wait + bytes staged)
  kNic,     ///< RNIC WR/CQE serialization
  kLink,    ///< fabric edge links, tx + rx (serialization + wait + bytes)
  kUplink,  ///< oversubscribed leaf->spine uplinks (serialization + bytes)
  kPool,    ///< buffer-pool slot occupancy (slot-ns, bytes = footprint)
  kQueue,   ///< engine DWRR/FCFS scheduler queues (wait + service)
};

[[nodiscard]] const char* to_string(LedgerKind kind);
inline constexpr std::size_t kLedgerKinds = 7;

class Ledger final : public sim::BusyObserver {
 public:
  struct Totals {
    std::uint64_t busy_ns = 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t bytes = 0;
    void add(const Totals& o) {
      busy_ns += o.busy_ns;
      wait_ns += o.wait_ns;
      bytes += o.bytes;
    }
  };

  /// One aggregated interference-matrix row: `aggressor` imposed `ns` of
  /// queueing on `victim` at resources of class `kind`.
  struct BlameRow {
    LedgerKind kind;
    std::int64_t aggressor;
    std::int64_t victim;
    std::uint64_t ns;
  };

  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Recording gate: every primitive is a no-op while disabled, so the
  /// hook sites cost one predicted branch in non-ledger runs. on_busy
  /// folds busy cells regardless; the gate holds back its wait and blame.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// BusyObserver: charges the frame's busy cell (kCore, or kDma for
  /// "<node>/dma" engines, which also carry bytes); when enabled, also the
  /// queue wait begin - submitted and the occupancy segment.
  void on_busy(std::string_view resource, const sim::ProfileFrame& frame,
               sim::TimePoint submitted, sim::TimePoint begin,
               sim::Duration scaled_ns, std::uint64_t bytes) override;

  // --- recording primitives -------------------------------------------------

  /// `tenant` occupies `resource` during [begin, end): charges busy-ns and
  /// appends an occupancy segment to the resource's timeline (the evidence
  /// later wait intervals are blamed against). Tenant -1 is the unscoped
  /// "system" bucket. `ref_now` is the simulation time of the recording
  /// event — the earliest origin any future wait at this resource can have,
  /// which is what bounds the timeline's memory; the two-argument form uses
  /// `begin`, correct whenever the occupancy starts at the current event.
  void occupy(LedgerKind kind, std::string_view resource, std::int64_t tenant,
              sim::TimePoint begin, sim::TimePoint end, sim::TimePoint ref_now);
  void occupy(LedgerKind kind, std::string_view resource, std::int64_t tenant,
              sim::TimePoint begin, sim::TimePoint end) {
    occupy(kind, resource, tenant, begin, end, begin);
  }

  /// Byte-denominated charge (DMA bytes staged, link wire bytes).
  void add_bytes(LedgerKind kind, std::string_view resource,
                 std::int64_t tenant, std::uint64_t bytes);

  /// A message of `tenant` waited at `resource` during [begin, end). The
  /// wait is charged to the tenant, and blame is distributed over the
  /// occupancy segments overlapping the window, earliest first, capped at
  /// the wait's length; the uncovered remainder is self-blamed. Exact:
  /// sum_over_aggressors(blame) == end - begin, always.
  void wait(LedgerKind kind, std::string_view resource, std::int64_t tenant,
            sim::TimePoint begin, sim::TimePoint end);

  /// FIFO wait bracketing for scheduler queues, where dequeue order across
  /// tenants is not arrival order: enter at enqueue, exit at dequeue. Exit
  /// pops the tenant's oldest open entry and charges the wait; exits
  /// without a matching entry (ledger enabled mid-run) are ignored.
  void queue_enter(LedgerKind kind, std::string_view resource,
                   std::int64_t tenant, sim::TimePoint now);
  void queue_exit(LedgerKind kind, std::string_view resource,
                  std::int64_t tenant, sim::TimePoint now);

  /// Buffer-pool slot occupancy, pre-integrated by the pool (slot-ns =
  /// integral of in-use slots over time). `bytes` carries the pool's
  /// byte-seconds numerator (slot-ns * buf_size collapses overflow; we
  /// record the pool footprint once instead).
  void add_slot_ns(std::string_view resource, std::int64_t tenant,
                   std::uint64_t slot_ns, std::uint64_t footprint_bytes);

  // --- queries --------------------------------------------------------------

  [[nodiscard]] Totals totals() const;
  [[nodiscard]] Totals totals(LedgerKind kind) const;
  [[nodiscard]] std::uint64_t busy_ns(LedgerKind kind,
                                      std::int64_t tenant) const;
  [[nodiscard]] std::uint64_t wait_ns(LedgerKind kind,
                                      std::int64_t tenant) const;
  [[nodiscard]] std::uint64_t bytes(LedgerKind kind, std::int64_t tenant) const;

  /// Total ns of queueing `aggressor` imposed on `victim`, over all
  /// resources (self-blame included when aggressor == victim).
  [[nodiscard]] std::uint64_t blame_ns(std::int64_t aggressor,
                                       std::int64_t victim) const;

  /// Interference matrix aggregated per (kind, aggressor, victim), sorted
  /// by descending ns (ties by keys) — the before/after tables.
  [[nodiscard]] std::vector<BlameRow> blame_rows() const;

  /// The tenant that imposed the most queueing on `victim`, excluding the
  /// victim itself and the unscoped -1 bucket; -1 when nobody did. This is
  /// the signal the blame-driven shedding policy targets.
  [[nodiscard]] std::int64_t top_aggressor(std::int64_t victim) const;

  // --- the busy-time profile (the framed cells on_busy folded) -------------

  [[nodiscard]] std::uint64_t profile_total_ns() const;
  /// Busy ns folded on one resource (exact core name).
  [[nodiscard]] std::uint64_t profile_ns(std::string_view resource) const;
  /// Busy ns summed over resources whose name starts with `prefix`
  /// (e.g. "node1/cpu/" covers a whole CoreSet).
  [[nodiscard]] std::uint64_t profile_prefix_ns(std::string_view prefix) const;

  /// Collapsed-stack file (flamegraph.pl / speedscope): one
  /// "resource;component;tenant:T;detail ns" line per frame, in
  /// lexicographic stack order (deterministic).
  void write_collapsed(const std::string& path) const;

  /// Busy ns per (component, tenant) as profile.busy_ns{component,tenant}
  /// counters plus the profile.total_busy_ns rollup.
  void export_profile(Registry& registry) const;

  // --- export ---------------------------------------------------------------

  /// ledger.* rollup counters: busy/wait/bytes per (kind, tenant) and
  /// blame per (aggressor, victim).
  void export_metrics(Registry& registry) const;

  /// Deterministic reports: integer-only JSON (totals, per-kind-tenant
  /// rollups, per-resource cells, the full blame matrix) and a flat CSV.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  /// Human-readable blame table (the top 12 cross-tenant rows).
  [[nodiscard]] std::string table() const;

  /// Merge another shard's totals into this ledger (sorted-key maps, so
  /// the result is independent of merge order arity). Live timeline state
  /// is not merged: shards only absorb after their run drained.
  void absorb(const Ledger& other);

  void reset();

 private:
  /// (kind, resource, tenant) leads, so the report rows — the cells
  /// summed over the frame — are runs of adjacent cells.
  struct CellKey {
    std::uint8_t kind;
    std::string resource;
    std::int64_t tenant;
    std::string component;  ///< profile frame; empty for the primitives
    std::string detail;
  };
  struct CellView {
    std::uint8_t kind;
    std::string_view resource;
    std::int64_t tenant;
    std::string_view component;
    std::string_view detail;
  };
  /// Transparent, so hot-path lookups probe with views and allocate only
  /// when a cell is new.
  struct CellLess {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      if (a.kind != b.kind) return a.kind < b.kind;
      if (const int r = std::string_view(a.resource).compare(b.resource)) {
        return r < 0;
      }
      if (a.tenant != b.tenant) return a.tenant < b.tenant;
      if (const int c = std::string_view(a.component).compare(b.component)) {
        return c < 0;
      }
      return std::string_view(a.detail) < std::string_view(b.detail);
    }
  };
  struct BlameKey {
    std::uint8_t kind;
    std::string resource;
    std::int64_t aggressor;
    std::int64_t victim;
    bool operator<(const BlameKey& o) const {
      if (kind != o.kind) return kind < o.kind;
      if (resource != o.resource) return resource < o.resource;
      if (aggressor != o.aggressor) return aggressor < o.aggressor;
      return victim < o.victim;
    }
  };
  struct Segment {
    sim::TimePoint begin;
    sim::TimePoint end;
    std::int64_t tenant;
  };
  /// Transient per-resource evidence: the occupancy timeline waits are
  /// blamed against, plus the open FIFO queue entries. Pruned as the
  /// resource's event clock advances, so memory stays bounded by the
  /// backlog window.
  struct Live {
    std::deque<Segment> segments;
    std::map<std::int64_t, std::deque<sim::TimePoint>> open;
    sim::TimePoint clock = 0;  ///< latest wait-origin seen at this resource
  };

  Totals& cell(LedgerKind kind, std::string_view resource,
               std::int64_t tenant, std::string_view component = {},
               std::string_view detail = {});
  Live& live(LedgerKind kind, std::string_view resource);
  void prune(Live& lv);
  /// Blame the wait [begin, end) of `tenant` on the occupancy segments
  /// overlapping it (the caller charges the wait itself).
  void blame(const Live& lv, LedgerKind kind, std::string_view resource,
             std::int64_t tenant, sim::TimePoint begin, sim::TimePoint end);
  /// Calls fn(key, totals) once per (kind, resource, tenant), summed over
  /// the profile frame, in key order: the rows the reports print.
  template <class Fn>
  void for_each_row(Fn&& fn) const;
  /// Calls fn(key, busy_ns) for every framed cell with busy time.
  template <class Fn>
  void for_each_profile_cell(Fn&& fn) const;

  bool enabled_ = false;
  std::map<CellKey, Totals, CellLess> cells_;
  std::map<BlameKey, std::uint64_t> blame_;
  std::map<std::pair<std::uint8_t, std::string>, Live> live_;
};

}  // namespace pd::obs
