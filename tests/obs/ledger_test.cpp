// Resource-ledger and interference-attribution tests (ISSUE 10).
//
// The tentpole's acceptance criteria, as tests: blame conserves exactly
// (per victim, the blame rows sum to the measured wait with zero
// residual), one on_busy charge folds both the ledger's busy cells and the
// busy-time profile to the same total, shard merges are order-independent down
// to the exported report bytes, the noisy-neighbor overload run produces
// byte-identical ledger artifacts across worker thread counts and across
// seeded chaos replays, and the blame-driven shedding policy targets the
// measured aggressor harder than the plain burn-rate clamp while keeping
// the protected tenant inside its SLO.
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "control/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/runcompare.hpp"
#include "sim/profile.hpp"

namespace pd::obs {
namespace {

TEST(Ledger, WaitBlameConservesExactly) {
  Ledger led;
  led.set_enabled(true);

  // Tenant 1 occupies core0 over [0,100); tenant 2's job, submitted at 40
  // (ref_now, which pins the prune clock like the real call sites do),
  // runs [100,250). A tenant-3 message waits [40,250): blame walks the
  // overlapping segments earliest-first — 60 ns against tenant 1, 150 ns
  // against tenant 2 — and sums exactly to the 210 ns wait with no
  // self-blame.
  led.occupy(LedgerKind::kCore, "core0", 1, 0, 100);
  led.occupy(LedgerKind::kCore, "core0", 2, 100, 250, /*ref_now=*/40);
  led.wait(LedgerKind::kCore, "core0", 3, 40, 250);
  EXPECT_EQ(led.wait_ns(LedgerKind::kCore, 3), 210u);
  EXPECT_EQ(led.blame_ns(1, 3), 60u);
  EXPECT_EQ(led.blame_ns(2, 3), 150u);
  EXPECT_EQ(led.blame_ns(3, 3), 0u);

  // A wait extending past all recorded occupancy self-blames the
  // uncovered remainder, so conservation still holds exactly.
  led.wait(LedgerKind::kCore, "core0", 4, 240, 400);
  EXPECT_EQ(led.wait_ns(LedgerKind::kCore, 4), 160u);
  EXPECT_EQ(led.blame_ns(2, 4), 10u);
  EXPECT_EQ(led.blame_ns(4, 4), 150u);

  // Every victim's blame rows sum to its measured wait: zero residual.
  std::map<std::int64_t, std::uint64_t> blame_by_victim;
  for (const auto& row : led.blame_rows()) blame_by_victim[row.victim] += row.ns;
  EXPECT_EQ(blame_by_victim[3], led.wait_ns(LedgerKind::kCore, 3));
  EXPECT_EQ(blame_by_victim[4], led.wait_ns(LedgerKind::kCore, 4));

  // Tenant 2 imposed the most cross-tenant queueing on tenant 3.
  EXPECT_EQ(led.top_aggressor(3), 2);
  EXPECT_EQ(led.top_aggressor(1), -1);
}

TEST(Ledger, OnBusyFoldsLedgerAndProfile) {
  // One charge stream, one set of cells: the ledger's busy totals and the
  // busy-time profile read the same framed cells, so they agree exactly —
  // the same conservation discipline the full runs assert via
  // profile.busy_ns.
  Ledger led;
  led.set_enabled(true);

  const sim::ProfileFrame f1{"fn", "work", 1};
  const sim::ProfileFrame f2{"fn", "work", 2};
  // Mirror the Core::submit call site: one on_busy per charged job.
  led.on_busy("node0/core0", f1, 0, 0, 1000, 0);
  // Second job submitted at 500 but starts at 1000 (behind tenant 1's
  // job): the 500 ns queue wait is charged to tenant 2 and blamed on
  // tenant 1, whose occupancy covers the whole window.
  led.on_busy("node0/core0", f2, 500, 1000, 2000, 0);

  EXPECT_EQ(led.totals(LedgerKind::kCore).busy_ns, 3000u);
  EXPECT_EQ(led.profile_total_ns(), 3000u);
  EXPECT_EQ(led.busy_ns(LedgerKind::kCore, 1), 1000u);
  EXPECT_EQ(led.busy_ns(LedgerKind::kCore, 2), 2000u);
  EXPECT_EQ(led.wait_ns(LedgerKind::kCore, 2), 500u);
  EXPECT_EQ(led.blame_ns(1, 2), 500u);

  // DMA engines ("<node>/dma") classify as kDma and carry bytes.
  led.on_busy("node0/dma", f1, 0, 0, 700, 4096);
  EXPECT_EQ(led.totals(LedgerKind::kDma).busy_ns, 700u);
  EXPECT_EQ(led.bytes(LedgerKind::kDma, 1), 4096u);
}

TEST(Ledger, QueueFifoBracketsWaitPerTenant) {
  Ledger led;
  led.set_enabled(true);
  // Two tenants interleave on one DWRR queue; exits pop each tenant's own
  // oldest entry, so out-of-arrival-order dequeues still charge correctly.
  led.queue_enter(LedgerKind::kQueue, "node1/dne/txq", 1, 100);
  led.queue_enter(LedgerKind::kQueue, "node1/dne/txq", 2, 150);
  led.queue_exit(LedgerKind::kQueue, "node1/dne/txq", 2, 300);
  led.queue_exit(LedgerKind::kQueue, "node1/dne/txq", 1, 450);
  EXPECT_EQ(led.wait_ns(LedgerKind::kQueue, 1), 350u);
  EXPECT_EQ(led.wait_ns(LedgerKind::kQueue, 2), 150u);
  // An exit with no matching entry (ledger enabled mid-run) is ignored.
  led.queue_exit(LedgerKind::kQueue, "node1/dne/txq", 7, 500);
  EXPECT_EQ(led.wait_ns(LedgerKind::kQueue, 7), 0u);
}

void charge_shard_a(Ledger& led) {
  led.occupy(LedgerKind::kCore, "node0/core0", 1, 0, 500);
  led.wait(LedgerKind::kCore, "node0/core0", 2, 100, 500);
  led.add_bytes(LedgerKind::kLink, "fabric/node0/tx", 1, 8192);
  led.add_slot_ns("node0/pool/fn", 1, 12345, 1 << 20);
}

void charge_shard_b(Ledger& led) {
  led.occupy(LedgerKind::kCore, "node1/core0", 2, 50, 400);
  led.wait(LedgerKind::kCore, "node1/core0", 1, 50, 300);
  led.add_bytes(LedgerKind::kUplink, "fabric/uplink/l0-l1", 2, 4096);
}

TEST(Ledger, MergeOrderIndependentDownToReportBytes) {
  Ledger a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  charge_shard_a(a);
  charge_shard_b(b);

  Ledger ab, ba;
  ab.absorb(a);
  ab.absorb(b);
  ba.absorb(b);
  ba.absorb(a);

  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.to_csv(), ba.to_csv());
  EXPECT_EQ(ab.table(), ba.table());

  // The exported metrics snapshot is byte-identical too.
  Registry rab, rba;
  ab.export_metrics(rab);
  ba.export_metrics(rba);
  EXPECT_EQ(rab.to_json(), rba.to_json());
  EXPECT_FALSE(rab.to_json().empty());
}

// ---- end-to-end, via the deterministic overload scenarios -----------------

/// Parse a ledger_json artifact and check exact conservation: for every
/// (kind, victim) the blame rows sum to that tenant's wait_ns rollup.
void expect_ledger_conserves(const std::string& ledger_json) {
  const JsonValue doc = json_parse(ledger_json);
  const JsonValue* led = doc.find("ledger");
  ASSERT_NE(led, nullptr);
  const JsonValue* tenants = led->find("tenants");
  const JsonValue* blame = led->find("blame");
  ASSERT_NE(tenants, nullptr);
  ASSERT_NE(blame, nullptr);

  std::map<std::pair<std::string, std::int64_t>, std::uint64_t> wait_by;
  for (const JsonValue& row : tenants->elements) {
    const JsonValue* kind = row.find("kind");
    const JsonValue* tenant = row.find("tenant");
    const JsonValue* wait = row.find("wait_ns");
    ASSERT_TRUE(kind && tenant && wait);
    wait_by[{kind->string, static_cast<std::int64_t>(tenant->number)}] +=
        static_cast<std::uint64_t>(wait->number);
  }
  std::map<std::pair<std::string, std::int64_t>, std::uint64_t> blame_by;
  for (const JsonValue& row : blame->elements) {
    const JsonValue* kind = row.find("kind");
    const JsonValue* victim = row.find("victim");
    const JsonValue* ns = row.find("ns");
    ASSERT_TRUE(kind && victim && ns);
    blame_by[{kind->string, static_cast<std::int64_t>(victim->number)}] +=
        static_cast<std::uint64_t>(ns->number);
  }
  // Zero residual, both directions: every wait is fully blamed, and no
  // blame exists without a matching wait.
  for (const auto& [key, ns] : wait_by) {
    EXPECT_EQ(blame_by[key], ns)
        << "kind " << key.first << " victim " << key.second;
  }
  for (const auto& [key, ns] : blame_by) {
    EXPECT_EQ(wait_by[key], ns)
        << "kind " << key.first << " victim " << key.second;
  }
}

TEST(LedgerOverload, NoisyNeighborLedgerByteIdenticalAcrossThreads) {
  control::OverloadOptions opts;
  opts.scenario = control::OverloadScenario::kNoisyNeighbor;
  opts.control = true;
  opts.seconds = 1;

  opts.threads = 1;
  const control::OverloadResult one = control::run_overload(opts);
  opts.threads = 2;
  const control::OverloadResult two = control::run_overload(opts);
  opts.threads = 4;
  const control::OverloadResult four = control::run_overload(opts);

  EXPECT_EQ(one.json(), two.json());
  EXPECT_EQ(one.json(), four.json());
  EXPECT_EQ(one.ledger_json, two.ledger_json);
  EXPECT_EQ(one.ledger_json, four.ledger_json);
  EXPECT_FALSE(one.ledger_json.empty());

  // The run actually recorded cross-tenant interference, and it conserves.
  bool cross_tenant = false;
  for (const auto& b : one.blame) {
    if (b.aggressor >= 0 && b.aggressor != b.victim) cross_tenant = true;
  }
  EXPECT_TRUE(cross_tenant);
  expect_ledger_conserves(one.ledger_json);
}

TEST(LedgerOverload, ChaosReplaySeed42LedgerIdentical) {
  control::OverloadOptions opts;
  opts.scenario = control::OverloadScenario::kChaos2x;
  opts.control = true;
  opts.seconds = 1;
  opts.chaos_seed = 42;
  opts.threads = 2;
  const control::OverloadResult first = control::run_overload(opts);
  const control::OverloadResult replay = control::run_overload(opts);
  EXPECT_EQ(first.json(), replay.json());
  EXPECT_EQ(first.ledger_json, replay.ledger_json);
  expect_ledger_conserves(first.ledger_json);
}

TEST(LedgerOverload, BlamePolicyShedsMeasuredAggressorHarder) {
  control::OverloadOptions opts;
  opts.scenario = control::OverloadScenario::kNoisyNeighbor;
  opts.control = true;
  opts.seconds = 3;

  opts.shed_policy = control::ShedPolicy::kBurnRate;
  const control::OverloadResult burn = control::run_overload(opts);
  opts.shed_policy = control::ShedPolicy::kBlame;
  const control::OverloadResult blame = control::run_overload(opts);
  EXPECT_EQ(burn.policy, "burn-rate");
  EXPECT_EQ(blame.policy, "blame");

  const auto admission_row = [](const control::OverloadResult& r,
                                const std::string& tenant)
      -> const control::OverloadResult::AdmissionRow& {
    for (const auto& a : r.admission) {
      if (a.tenant == tenant) return a;
    }
    ADD_FAILURE() << "no admission row for " << tenant;
    static control::OverloadResult::AdmissionRow empty;
    return empty;
  };
  // The blame policy targets the measured aggressor: strictly more of the
  // batch tenant's traffic is shed than under the plain burn-rate clamp.
  EXPECT_GT(admission_row(blame, "batch").shed,
            admission_row(burn, "batch").shed);
  EXPECT_LT(admission_row(blame, "batch").admitted,
            admission_row(burn, "batch").admitted);

  // And the protected tenant still lands inside its declared SLO.
  for (const auto& g : blame.gens) {
    if (g.target == "/home") {
      EXPECT_LE(g.p99_ns, 2'500'000);
      EXPECT_GT(g.completed, 0u);
    }
  }
  EXPECT_TRUE(blame.zero_loss);
}

}  // namespace
}  // namespace pd::obs
