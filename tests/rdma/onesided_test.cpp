// One-sided READ/FAA verbs and the cart state store (ISSUE 8), plus
// regression coverage for the two latent one-sided bugs this PR fixes:
// remote-access violations must surface as error completions at the
// initiator (never a PD_CHECK abort, never remote CPU time), and OWDL's
// wr_id spaces must be collision-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "control/cartstore_bench.hpp"
#include "core/onesided.hpp"
#include "proto/cost_model.hpp"
#include "rdma/connection.hpp"
#include "rdma/rnic.hpp"
#include "runtime/boutique.hpp"
#include "runtime/function.hpp"
#include "runtime/statestore.hpp"
#include "workload/driver.hpp"

namespace pd::rdma {
namespace {

constexpr TenantId kTenant{1};
constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr NodeId kNode3{3};

/// Two-node world with one fully registered tenant pool per node; node 3
/// (second atomic contender) is added on demand.
class OneSidedVerbsTest : public ::testing::Test {
 protected:
  OneSidedVerbsTest()
      : net(sched),
        mem1(kNode1),
        mem2(kNode2),
        rnic1(net, kNode1, mem1),
        rnic2(net, kNode2, mem2) {
    for (auto* dom : {&mem1, &mem2}) {
      auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", 32, 4096);
      tm.export_to_rdma();
    }
    rnic1.register_memory(mem1.by_tenant(kTenant).pool_id());
    rnic2.register_memory(mem2.by_tenant(kTenant).pool_id());
  }

  QueuePair& connect(Rnic& from, Rnic& to) {
    QueuePair& a = from.create_qp(kTenant);
    QueuePair& b = to.create_qp(kTenant);
    connect_qps(a, b, nullptr);
    sched.run();
    a.activate(nullptr);
    b.activate(nullptr);
    sched.run();
    EXPECT_EQ(a.state(), QpState::kActive);
    return a;
  }

  /// Allocate a slot owned by `node`'s RNIC in its tenant pool.
  mem::BufferDescriptor rnic_slot(mem::MemoryDomain& dom, NodeId node) {
    auto d = dom.by_tenant(kTenant).pool().allocate(mem::actor_rnic(node));
    EXPECT_TRUE(d.has_value());
    return *d;
  }

  /// Run to quiescence and drain every CQE from `rnic`'s CQ.
  std::vector<Completion> drain(Rnic& rnic) {
    sched.run();
    return rnic.cq().poll(64);
  }

  sim::Scheduler sched;
  RdmaNetwork net;
  mem::MemoryDomain mem1;
  mem::MemoryDomain mem2;
  Rnic rnic1;
  Rnic rnic2;
};

// ---------------------------------------------------------------------------
// Tentpole: READ / FAA semantics
// ---------------------------------------------------------------------------

TEST_F(OneSidedVerbsTest, ReadReturnsPriorWriteBytesWithoutRemoteCpu) {
  QueuePair& qp = connect(rnic1, rnic2);
  const char kText[] = "cart-record-v1";
  const auto len = static_cast<std::uint32_t>(sizeof kText);

  // WRITE the record into node 2's slab slot.
  const mem::BufferDescriptor remote = rnic_slot(mem2, kNode2);
  auto src = rnic_slot(mem1, kNode1);
  auto& pool1 = mem1.by_tenant(kTenant).pool();
  std::memcpy(pool1.access(src, mem::actor_rnic(kNode1)).data(), kText, len);
  src = pool1.resize(src, mem::actor_rnic(kNode1), len);

  WorkRequest wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::kWrite;
  wr.local = src;
  wr.remote_pool = remote.pool;
  wr.remote_index = remote.index;
  qp.post_send(wr);
  auto cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].status, CompletionStatus::kSuccess);

  // READ it back into a fresh landing buffer.
  const mem::BufferDescriptor landing = rnic_slot(mem1, kNode1);
  WorkRequest rd;
  rd.wr_id = 2;
  rd.opcode = Opcode::kRead;
  rd.local = landing;
  rd.remote_pool = remote.pool;
  rd.remote_index = remote.index;
  rd.read_len = len;
  qp.post_send(rd);
  cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].opcode, Opcode::kRead);
  EXPECT_EQ(cs[0].status, CompletionStatus::kSuccess);
  EXPECT_EQ(cs[0].byte_len, len);
  EXPECT_EQ(std::memcmp(
                pool1.access(cs[0].buffer, mem::actor_rnic(kNode1)).data(),
                kText, len),
            0);

  // The one-sided contract: the target node's CPU saw nothing — no CQE
  // was ever raised at node 2 (pure NIC-to-NIC DMA both directions).
  EXPECT_EQ(rnic2.cq().total_pushed(), 0u);
  EXPECT_EQ(rnic1.counters().reads, 1u);
  EXPECT_EQ(rnic2.counters().access_errors, 0u);
}

TEST_F(OneSidedVerbsTest, FetchAddIsAtomicUnderTwoContendingClients) {
  constexpr std::uint64_t kAddr = 0x5000;
  constexpr int kPerClient = 8;
  rnic2.set_atomic_word(kAddr, 0);

  mem::MemoryDomain mem3(kNode3);
  Rnic rnic3(net, kNode3, mem3);
  mem3.create_tenant_pool(kTenant, "tenant_1", 32, 4096).export_to_rdma();
  rnic3.register_memory(mem3.by_tenant(kTenant).pool_id());

  QueuePair& qa = connect(rnic1, rnic2);
  QueuePair& qc = connect(rnic3, rnic2);

  for (int i = 0; i < kPerClient; ++i) {
    for (QueuePair* qp : {&qa, &qc}) {
      WorkRequest wr;
      wr.wr_id = static_cast<std::uint64_t>(i);
      wr.opcode = Opcode::kFetchAdd;
      wr.atomic_addr = kAddr;
      wr.atomic_desired = 1;  // the addend
      qp->post_send(wr);
    }
  }
  sched.run();

  // Every pre-add value 0..2N-1 is observed exactly once across the two
  // contenders — the hardware-atomicity invariant.
  std::vector<std::uint64_t> found;
  for (Rnic* r : {&rnic1, &rnic3}) {
    for (const Completion& c : r->cq().poll(64)) {
      EXPECT_EQ(c.opcode, Opcode::kFetchAdd);
      EXPECT_EQ(c.status, CompletionStatus::kSuccess);
      found.push_back(c.atomic_found);
    }
  }
  ASSERT_EQ(found.size(), 2u * kPerClient);
  std::sort(found.begin(), found.end());
  for (std::size_t i = 0; i < found.size(); ++i) EXPECT_EQ(found[i], i);
  EXPECT_EQ(rnic2.atomic_word(kAddr), 2u * kPerClient);
  // The FAA counter is initiator-side ("WRs initiated from here").
  EXPECT_EQ(rnic1.counters().fetch_adds, static_cast<std::uint64_t>(kPerClient));
  EXPECT_EQ(rnic3.counters().fetch_adds, static_cast<std::uint64_t>(kPerClient));
}

// ---------------------------------------------------------------------------
// Satellite bugfix: rkey violations are error completions, not aborts
// ---------------------------------------------------------------------------

TEST_F(OneSidedVerbsTest, ReadDeniedByLocalOnlyMrFailsAtInitiator) {
  QueuePair& qp = connect(rnic1, rnic2);

  // A scratch region on node 2 registered without remote permissions —
  // structurally identical to the cart client's landing buffers.
  auto& scratch = mem2.create_tenant_pool(TenantId{900}, "scratch", 4, 4096);
  scratch.export_to_rdma();
  rnic2.register_memory(scratch.pool_id(), kMrLocal);

  WorkRequest rd;
  rd.wr_id = 7;
  rd.opcode = Opcode::kRead;
  rd.local = rnic_slot(mem1, kNode1);
  rd.remote_pool = scratch.pool_id();
  rd.remote_index = 0;
  rd.read_len = 64;
  qp.post_send(rd);

  auto cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].wr_id, 7u);
  EXPECT_EQ(cs[0].opcode, Opcode::kRead);
  EXPECT_EQ(cs[0].status, CompletionStatus::kRemoteAccessError);
  EXPECT_EQ(rnic2.counters().access_errors, 1u);
  // The QP survives: a subsequent READ against a permitted MR succeeds.
  const mem::BufferDescriptor remote = rnic_slot(mem2, kNode2);
  WorkRequest ok;
  ok.wr_id = 8;
  ok.opcode = Opcode::kRead;
  ok.local = rnic_slot(mem1, kNode1);
  ok.remote_pool = remote.pool;
  ok.remote_index = remote.index;
  ok.read_len = 64;
  qp.post_send(ok);
  cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].status, CompletionStatus::kSuccess);
}

TEST_F(OneSidedVerbsTest, WriteDeniedRaisesLateErrorAfterWireExit) {
  QueuePair& qp = connect(rnic1, rnic2);
  // mem1's pool is foreign (unregistered) at node 2's NIC: rkey check fails.
  auto src = rnic_slot(mem1, kNode1);
  src = mem1.by_tenant(kTenant).pool().resize(src, mem::actor_rnic(kNode1), 64);

  WorkRequest wr;
  wr.wr_id = 9;
  wr.opcode = Opcode::kWrite;
  wr.local = src;
  wr.remote_pool = mem1.by_tenant(kTenant).pool_id();  // foreign at node 2
  wr.remote_index = 0;
  qp.post_send(wr);

  // A WRITE completes locally when it leaves the NIC (success CQE), then
  // the remote NAK arrives as a second, error CQE for the same wr_id — the
  // double-decrement of the SQ slot is the bug this PR fixed.
  auto cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].status, CompletionStatus::kSuccess);
  EXPECT_EQ(cs[1].status, CompletionStatus::kRemoteAccessError);
  EXPECT_EQ(cs[1].wr_id, 9u);
  EXPECT_EQ(rnic2.counters().access_errors, 1u);
  EXPECT_EQ(qp.state(), QpState::kActive);
}

TEST_F(OneSidedVerbsTest, DeniedAtomicsCompleteWithErrorNotAbort) {
  QueuePair& qp = connect(rnic1, rnic2);

  // CAS against a word that was never mapped: used to PD_CHECK-abort the
  // whole process; must now come back as a remote-access error CQE.
  WorkRequest cas;
  cas.wr_id = 11;
  cas.opcode = Opcode::kCompareSwap;
  cas.atomic_addr = 0x7777;  // unmapped
  cas.atomic_expect = 0;
  cas.atomic_desired = 1;
  qp.post_send(cas);
  auto cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].opcode, Opcode::kCompareSwap);
  EXPECT_EQ(cs[0].status, CompletionStatus::kRemoteAccessError);
  EXPECT_EQ(rnic2.counters().atomic_access_errors, 1u);

  // A word guarded by an MR without kMrRemoteAtomic is equally denied.
  auto& scratch = mem2.create_tenant_pool(TenantId{900}, "scratch", 4, 4096);
  scratch.export_to_rdma();
  rnic2.register_memory(scratch.pool_id(), kMrLocal);
  rnic2.set_atomic_word(0x8888, 0, scratch.pool_id());
  WorkRequest guarded = cas;
  guarded.wr_id = 12;
  guarded.atomic_addr = 0x8888;
  qp.post_send(guarded);
  cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].status, CompletionStatus::kRemoteAccessError);
  EXPECT_EQ(rnic2.counters().atomic_access_errors, 2u);
  EXPECT_EQ(rnic2.atomic_word(0x8888), 0u);  // value untouched

  // Same guard with atomic permission: served.
  rnic2.set_atomic_word(0x9999, 0, mem2.by_tenant(kTenant).pool_id());
  WorkRequest served = cas;
  served.wr_id = 13;
  served.atomic_addr = 0x9999;
  qp.post_send(served);
  cs = drain(rnic1);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].status, CompletionStatus::kSuccess);
  EXPECT_EQ(rnic2.atomic_word(0x9999), 1u);
}

TEST_F(OneSidedVerbsTest, DeniedAtomicLatencyMatchesServedLatency) {
  // The denial responds at the same latency as a served atomic, so an
  // initiator cannot probe which addresses are mapped by timing NAKs.
  QueuePair& qp = connect(rnic1, rnic2);
  rnic2.set_atomic_word(0x4000, 0);

  auto measure = [&](std::uint64_t addr, std::uint64_t id) {
    WorkRequest wr;
    wr.wr_id = id;
    wr.opcode = Opcode::kCompareSwap;
    wr.atomic_addr = addr;
    wr.atomic_expect = 0;
    wr.atomic_desired = 1;
    const sim::TimePoint t0 = sched.now();
    qp.post_send(wr);
    sched.run();
    EXPECT_EQ(rnic1.cq().poll(4).size(), 1u);
    return sched.now() - t0;
  };

  measure(0x4000, 1);  // warmup: steady-state QP cache
  rnic2.set_atomic_word(0x4000, 0);
  const sim::Duration served = measure(0x4000, 2);
  const sim::Duration denied = measure(0xDEAD, 3);
  EXPECT_EQ(served, denied);
}

// ---------------------------------------------------------------------------
// Satellite bugfix: OWDL wr_id spaces
// ---------------------------------------------------------------------------

TEST(OwdlWrIdTest, IdSpacesCannotCollide) {
  using core::owdl_cas_wr_id;
  using core::owdl_unlock_wr_id;
  using core::owdl_write_wr_id;

  // The exact pre-fix failure: write ids were `1e9 + k` from the shared
  // counter, so cas id `1e9 + k` aliased write id `k` and the CAS stole
  // the write's parked continuation.
  constexpr std::uint64_t kOldWriteIdBase = 1'000'000'000ULL;
  for (std::uint64_t k : {0ULL, 1ULL, 5ULL, 123'456ULL}) {
    EXPECT_NE(owdl_cas_wr_id(kOldWriteIdBase + k), owdl_write_wr_id(k));
  }

  // Pairwise-disjoint across the whole practical id range.
  const std::uint64_t samples[] = {1ULL,          2ULL,       1'000ULL,
                                   kOldWriteIdBase, 1ULL << 40, (1ULL << 62) - 1};
  for (std::uint64_t n : samples) {
    for (std::uint64_t m : samples) {
      EXPECT_NE(owdl_cas_wr_id(n), owdl_write_wr_id(m));
      EXPECT_NE(owdl_cas_wr_id(n), owdl_unlock_wr_id(m));
      EXPECT_NE(owdl_write_wr_id(n), owdl_unlock_wr_id(m));
    }
    // The tag is lossless: the sequence number survives.
    EXPECT_EQ(owdl_cas_wr_id(n) & ~(3ULL << 62), n);
  }
}

// ---------------------------------------------------------------------------
// Tentpole integration: the cart state store inside the cluster
// ---------------------------------------------------------------------------

TEST(CartStoreTest, StoreModeBeatsRpcOnCartChainsAndIdlesTheCartService) {
  control::CartAblationOptions opts;
  opts.threads = 0;
  opts.seconds = 1;
  const control::CartAblationResult r = control::run_cart_ablation(opts);

  ASSERT_EQ(r.rpc.chains.size(), 3u);
  ASSERT_EQ(r.store.chains.size(), 3u);
  EXPECT_TRUE(r.rpc.zero_loss);
  EXPECT_TRUE(r.store.zero_loss);

  // The READ chains (/home, /viewcart) and the CAS chain (/addtocart) all
  // get faster once the cart hop stops being an RPC.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(r.store.chains[i].p50_ns, r.rpc.chains[i].p50_ns)
        << r.store.chains[i].target;
    EXPECT_LT(r.store.chains[i].p99_ns, r.rpc.chains[i].p99_ns)
        << r.store.chains[i].target;
  }

  // Mechanism, not luck: the store mode actually used one-sided verbs,
  // never fell back, and the cart service never ran.
  EXPECT_GT(r.store.store_ops, 0u);
  EXPECT_EQ(r.store.store_fallbacks, 0u);
  EXPECT_EQ(r.store.store_errors, 0u);
  EXPECT_GT(r.store.rnic_reads, 0u);
  EXPECT_GT(r.store.rnic_fetch_adds, 0u);
  EXPECT_EQ(r.store.cart_invocations, 0u);
  EXPECT_GT(r.rpc.cart_invocations, 0u);
  EXPECT_EQ(r.rpc.rnic_reads, 0u);

  // And the store node's host CPUs shed the cart work.
  EXPECT_LT(r.store.store_node_cpu_busy_ns, r.rpc.store_node_cpu_busy_ns);
}

TEST(CartStoreTest, AblationIsByteIdenticalAcrossThreadCounts) {
  control::CartAblationOptions opts;
  opts.seconds = 1;
  opts.threads = 1;
  const std::string one = control::run_cart_ablation(opts).json();
  opts.threads = 2;
  const std::string two = control::run_cart_ablation(opts).json();
  EXPECT_EQ(one, two);
}

TEST(CartStoreTest, RkeyDenialFallsBackToRpcAndRequestsStillComplete) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 8;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(kNode1);
  cluster.add_worker(kNode2);
  runtime::OnlineBoutique::deploy(cluster, kNode1, kNode2,
                                  /*cart_store=*/true);
  cluster.enable_cart_store(kNode2);
  workload::ChainDriver driver(cluster, FunctionId{100}, kNode1,
                               runtime::OnlineBoutique::kViewCart);
  cluster.finish_setup();

  // Every one-sided READ now aims at an MR the store NIC rejects.
  runtime::CartStoreClient* client = cluster.cart_client(kNode1);
  ASSERT_NE(client, nullptr);
  client->set_force_denial(true);

  driver.start(2);
  psim.run_until(sched.now() + 300'000'000);
  driver.stop();
  psim.run();

  // Denials happened, every one fell back to the RPC path, and the
  // requests completed anyway — nothing hangs on a revoked rkey.
  EXPECT_GT(driver.completed(), 0u);
  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_GT(client->counters().errors, 0u);
  EXPECT_EQ(client->counters().reads, 0u);
  runtime::FunctionInstance& fe =
      cluster.instance(runtime::OnlineBoutique::kFrontend);
  EXPECT_GT(fe.store_fallbacks(), 0u);
  EXPECT_EQ(fe.store_fallbacks(), fe.store_ops());
  EXPECT_GT(cluster.instance(runtime::OnlineBoutique::kCart).invocations(),
            0u);
  const RnicCounters& store_nic = cluster.worker(kNode2).rnic()->counters();
  EXPECT_GT(store_nic.access_errors, 0u);
}

TEST(CartStoreTest, UpdateLadderCommitsAndBumpsVersions) {
  sim::ParallelSim psim(1);
  sim::Scheduler& sched = psim.shard(0);
  runtime::ClusterConfig cfg;
  cfg.system = runtime::SystemKind::kPalladiumDne;
  cfg.cpu_cores_per_node = 8;
  runtime::Cluster cluster(psim, cfg);
  cluster.add_worker(kNode1);
  cluster.add_worker(kNode2);
  runtime::OnlineBoutique::deploy(cluster, kNode1, kNode2,
                                  /*cart_store=*/true);
  cluster.enable_cart_store(kNode2, /*slots=*/8);
  workload::ChainDriver driver(cluster, FunctionId{100}, kNode1,
                               runtime::OnlineBoutique::kAddToCart);
  cluster.finish_setup();

  driver.start(4);
  psim.run_until(sched.now() + 300'000'000);
  driver.stop();
  psim.run();

  EXPECT_GT(driver.completed(), 0u);
  runtime::CartStoreClient* client = cluster.cart_client(kNode1);
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->counters().updates, 0u);
  EXPECT_EQ(client->counters().errors, 0u);

  // Committed-update accounting is exact: the per-slot version words sum
  // to the client's update count, and every token was released.
  runtime::CartStateStore* store = cluster.cart_store();
  ASSERT_NE(store, nullptr);
  std::uint64_t versions = 0;
  for (std::uint32_t s = 0; s < store->slots(); ++s) {
    versions += store->version(s);
    EXPECT_EQ(cluster.worker(kNode2).rnic()->atomic_word(
                  runtime::CartStateStore::token_addr(s)),
              0u);
  }
  EXPECT_EQ(versions, client->counters().updates);
}

}  // namespace
}  // namespace pd::rdma
