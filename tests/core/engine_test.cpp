// NetworkEngine white-box tests: SRQ replenishment, RNR behaviour under
// pool pressure, DWRR-vs-FCFS inside the engine, and on-path DMA staging.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/seq_ring.hpp"
#include "proto/cost_model.hpp"

namespace pd::core {
namespace {

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kSrcFn{1};
constexpr FunctionId kDstFn{2};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : net(sched),
        mem1(kNode1),
        mem2(kNode2),
        rnic1(net, kNode1, mem1),
        rnic2(net, kNode2, mem2),
        dpu1(sched, kNode1),
        dpu2(sched, kNode2),
        fn_core1(sched, "fn1"),
        fn_core2(sched, "fn2") {}

  void build(EngineConfig config, EngineKind kind = EngineKind::kDneOffPath) {
    for (auto* dom : {&mem1, &mem2}) {
      auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", pool_buffers,
                                         2048);
      tm.export_to_dpu();
      tm.export_to_rdma();
    }
    eng1 = std::make_unique<NetworkEngine>(sched, kind, config, dpu1.core(0),
                                           rnic1, mem1, &dpu1);
    eng2 = std::make_unique<NetworkEngine>(sched, kind, config, dpu2.core(0),
                                           rnic2, mem2, &dpu2);
    eng1->add_tenant(kTenant, 1);
    eng2->add_tenant(kTenant, 1);
    eng1->connect_peer(kNode2);
    eng2->connect_peer(kNode1);
    eng1->routes().add_route(kDstFn, kNode2);
    eng2->routes().add_route(kSrcFn, kNode1);
    eng1->register_local_function(kSrcFn, kTenant, fn_core1,
                                  [this](const mem::BufferDescriptor& d) {
                                    src_got.push_back(d);
                                  });
    eng2->register_local_function(kDstFn, kTenant, fn_core2,
                                  [this](const mem::BufferDescriptor& d) {
                                    dst_got.push_back(d);
                                  });
    sched.run();  // connection setup
  }

  /// Send one message kSrcFn(node1) -> kDstFn(node2).
  void send_one(std::uint32_t payload = 64) {
    auto& pool = mem1.by_tenant(kTenant).pool();
    auto d = pool.allocate(mem::actor_function(kSrcFn));
    ASSERT_TRUE(d.has_value());
    MessageHeader h;
    h.request_id = next_id++;
    h.src_fn = kSrcFn.value();
    h.dst_fn = kDstFn.value();
    h.payload_len = payload;
    write_header(pool.access(*d, mem::actor_function(kSrcFn)), h);
    const auto sized = pool.resize(*d, mem::actor_function(kSrcFn),
                                   message_bytes(payload));
    eng1->submit(kSrcFn, fn_core1, sized);
  }

  sim::Scheduler sched;
  rdma::RdmaNetwork net;
  mem::MemoryDomain mem1;
  mem::MemoryDomain mem2;
  rdma::Rnic rnic1;
  rdma::Rnic rnic2;
  dpu::Dpu dpu1;
  dpu::Dpu dpu2;
  sim::Core fn_core1;
  sim::Core fn_core2;
  std::unique_ptr<NetworkEngine> eng1;
  std::unique_ptr<NetworkEngine> eng2;
  std::vector<mem::BufferDescriptor> src_got;
  std::vector<mem::BufferDescriptor> dst_got;
  std::uint64_t next_id = 1;
  std::size_t pool_buffers = 128;
};

TEST_F(EngineTest, DeliversAcrossNodesWithOwnershipHandoff) {
  build(EngineConfig{});
  send_one();
  sched.run();
  ASSERT_EQ(dst_got.size(), 1u);
  // The destination function owns the delivered buffer.
  auto& pool2 = mem2.by_tenant(kTenant).pool();
  EXPECT_EQ(pool2.owner_of(dst_got[0]).kind, mem::ActorKind::kFunction);
  const MessageHeader h =
      read_header(pool2.access(dst_got[0], mem::actor_function(kDstFn)));
  EXPECT_EQ(h.dst(), kDstFn);
  EXPECT_EQ(eng1->counters().tx_msgs, 1u);
  EXPECT_EQ(eng2->counters().rx_msgs, 1u);
  EXPECT_EQ(eng1->counters().recycled, 1u);  // sender buffer reclaimed
}

TEST_F(EngineTest, ReplenisherKeepsSrqStocked) {
  EngineConfig cfg;
  cfg.srq_fill = 8;
  build(cfg);
  for (int i = 0; i < 32; ++i) {
    send_one();
    sched.run();
  }
  EXPECT_EQ(dst_got.size(), 32u);
  // Consumed buffers were reposted by the core thread.
  EXPECT_GE(eng2->counters().replenished, 32u + 8u);
  EXPECT_EQ(rnic2.counters().rnr_events, 0u);
}

TEST_F(EngineTest, BurstBeyondSrqDepthRecoversViaRnr) {
  EngineConfig cfg;
  cfg.srq_fill = 2;
  cfg.replenish_period = 200'000;  // slow replenisher
  build(cfg);
  for (int i = 0; i < 16; ++i) send_one();
  // Recovery rides the background replenish tick, which does not keep
  // run() alive on its own — drive virtual time forward instead.
  sched.run_until(sched.now() + 20'000'000);
  // Everything still arrives; some sends stalled in RNR until reposting.
  ASSERT_EQ(dst_got.size(), 16u);
  EXPECT_GT(rnic2.counters().rnr_events, 0u);
}

TEST_F(EngineTest, UnroutableFunctionGetsErrorCompletion) {
  build(EngineConfig{});
  auto& pool = mem1.by_tenant(kTenant).pool();
  auto d = pool.allocate(mem::actor_function(kSrcFn));
  MessageHeader h;
  h.src_fn = kSrcFn.value();
  h.dst_fn = 999;  // nobody deployed this
  h.payload_len = 16;
  write_header(pool.access(*d, mem::actor_function(kSrcFn)), h);
  eng1->submit(kSrcFn, fn_core1,
               pool.resize(*d, mem::actor_function(kSrcFn), message_bytes(16)));
  sched.run();
  EXPECT_EQ(eng1->counters().drops_no_route, 1u);
  EXPECT_EQ(eng1->counters().tx_msgs, 0u);
  // No silent drop: the sender gets an explicit error completion carrying
  // the failed message's identity.
  EXPECT_EQ(eng1->counters().error_completions, 1u);
  ASSERT_EQ(src_got.size(), 1u);
  const MessageHeader e =
      read_header(pool.access(src_got[0], mem::actor_function(kSrcFn)));
  EXPECT_TRUE(e.is_error());
  EXPECT_EQ(e.dst(), kSrcFn);
  EXPECT_EQ(e.payload_len, 0u);
  pool.release(src_got[0], mem::actor_function(kSrcFn));
  // Buffer was reclaimed, not leaked (64 buffers live in the SRQ).
  EXPECT_EQ(pool.available(), pool.capacity() - 64);
}

TEST_F(EngineTest, OnPathStagesThroughSocDma) {
  build(EngineConfig{}, EngineKind::kDneOnPath);
  send_one(1024);
  sched.run();
  ASSERT_EQ(dst_got.size(), 1u);
  // TX staged host->SoC and RX staged SoC->host: two DMA ops.
  EXPECT_EQ(dpu1.dma().transfers() + dpu2.dma().transfers(), 2u);
}

TEST_F(EngineTest, OffPathNeverTouchesSocDma) {
  build(EngineConfig{});
  send_one(1024);
  sched.run();
  ASSERT_EQ(dst_got.size(), 1u);
  EXPECT_EQ(dpu1.dma().transfers(), 0u);
  EXPECT_EQ(dpu2.dma().transfers(), 0u);
}

TEST_F(EngineTest, CneRunsOnHostCoreWithoutDpu) {
  // 64 buffers would be fully consumed by the default SRQ fill; leave
  // allocation headroom for the test's own message.
  for (auto* dom : {&mem1, &mem2}) {
    auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", 256, 2048);
    tm.export_to_rdma();
  }
  sim::Core cne_core1(sched, "cne1"), cne_core2(sched, "cne2");
  NetworkEngine cne1(sched, EngineKind::kCne, EngineConfig{}, cne_core1, rnic1,
                     mem1, nullptr);
  NetworkEngine cne2(sched, EngineKind::kCne, EngineConfig{}, cne_core2, rnic2,
                     mem2, nullptr);
  cne1.add_tenant(kTenant, 1);
  cne2.add_tenant(kTenant, 1);
  cne1.connect_peer(kNode2);
  cne2.connect_peer(kNode1);
  cne1.routes().add_route(kDstFn, kNode2);
  cne1.register_local_function(kSrcFn, kTenant, fn_core1,
                               [](const mem::BufferDescriptor&) {});
  bool delivered = false;
  cne2.register_local_function(kDstFn, kTenant, fn_core2,
                               [&](const mem::BufferDescriptor&) {
                                 delivered = true;
                               });
  sched.run();

  auto& pool = mem1.by_tenant(kTenant).pool();
  auto d = pool.allocate(mem::actor_function(kSrcFn));
  ASSERT_TRUE(d.has_value());
  MessageHeader h;
  h.src_fn = kSrcFn.value();
  h.dst_fn = kDstFn.value();
  h.payload_len = 32;
  write_header(pool.access(*d, mem::actor_function(kSrcFn)), h);
  cne1.submit(kSrcFn, fn_core1,
              pool.resize(*d, mem::actor_function(kSrcFn), message_bytes(32)));
  sched.run();
  EXPECT_TRUE(delivered);
  // CNE is interrupt-driven, not pinned.
  EXPECT_FALSE(cne_core1.busy_poll());
  EXPECT_GT(cne_core1.busy_ns(), 0);
}

TEST_F(EngineTest, EngineRejectsUnknownTenantTraffic) {
  build(EngineConfig{});
  auto& other =
      mem1.create_tenant_pool(TenantId{9}, "rogue", 8, 2048);
  other.export_to_dpu();
  other.export_to_rdma();
  auto d = other.pool().allocate(mem::actor_function(kSrcFn));
  MessageHeader h;
  h.src_fn = kSrcFn.value();
  h.dst_fn = kDstFn.value();
  write_header(other.pool().access(*d, mem::actor_function(kSrcFn)), h);
  eng1->submit(kSrcFn, fn_core1, *d);
  EXPECT_THROW(sched.run(), CheckFailure);  // ingest rejects tenant 9
}

TEST_F(EngineTest, TenantAdmissionGateShedsExplicitlyAndRecovers) {
  EngineConfig cfg;
  cfg.tenant_admission = true;
  // Single tenant -> credit cap of 8 (the whole window, also the floor):
  // the tenant gate sheds before the node-wide window fills.
  cfg.max_unacked = 8;
  build(cfg);
  for (int i = 0; i < 16; ++i) send_one();
  sched.run();
  // The burst exceeds the tenant's credit slice: the overflow is shed with
  // explicit error completions back to the submitter — never silently.
  EXPECT_GT(eng1->counters().shed_admission, 0u);
  EXPECT_EQ(eng1->counters().shed_admission, eng1->counters().requests_shed);
  EXPECT_EQ(dst_got.size() + src_got.size(), 16u);
  for (const auto& d : src_got) {
    auto& pool = mem1.by_tenant(kTenant).pool();
    EXPECT_TRUE(read_header(pool.access(d, mem::actor_function(kSrcFn)))
                    .is_error());
    pool.release(d, mem::actor_function(kSrcFn));
  }
  // Recovery: once the window drains, fresh sends are admitted again.
  const auto shed_before = eng1->counters().shed_admission;
  for (int i = 0; i < 4; ++i) {
    send_one();
    sched.run();
  }
  EXPECT_EQ(eng1->counters().shed_admission, shed_before);
  EXPECT_EQ(dst_got.size() + src_got.size(), 20u);
}

TEST(SeqRing, GrowsPastALongLivedSeqAndNeverWrapsOntoIt) {
  SeqRing<int> ring;
  ring.insert(1, -1);
  for (std::uint64_t seq = 2; seq <= 10'001; ++seq) {
    ring.insert(seq, static_cast<int>(seq));
    ASSERT_EQ(*ring.find(seq), static_cast<int>(seq));
    ring.erase(seq);
    ASSERT_EQ(*ring.find(1), -1);  // never overwritten by a later seq
  }
  EXPECT_GE(ring.capacity(), 10'001u);  // the window [1, 10001] forced growth
  EXPECT_EQ(ring.size(), 1u);
  ring.erase(1);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.find(1), nullptr);       // retired
  EXPECT_EQ(ring.find(10'001), nullptr);  // retired
  EXPECT_EQ(ring.find(10'002), nullptr);  // never issued
  EXPECT_EQ(ring.find(0), nullptr);       // "unsequenced"
  EXPECT_THROW(ring.erase(1), CheckFailure);
  EXPECT_THROW(ring.insert(10'001, 0), CheckFailure);  // not increasing
  // With the long-lived seq gone the window is short again: the ring
  // halves back to its initial size instead of keeping its peak.
  for (std::uint64_t seq = 10'002; seq <= 10'101; ++seq) {
    ring.insert(seq, 0);
    ring.erase(seq);
  }
  EXPECT_LE(ring.capacity(), 16u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST_F(EngineTest, LongUnackedSeqSurvivesTenThousandNewerAcks) {
  EngineConfig cfg;
  cfg.retransmit_timeout = 10'000'000'000;  // 10 s: seq 1 stays pending
  build(cfg);
  // Seq 1's frame dies on node 2's dark port, so no ACK ever comes back.
  net.fabric().set_node_down(kNode2, true);
  send_one();
  sched.run_until(sched.now() + 100'000);
  net.fabric().set_node_down(kNode2, false);
  ASSERT_EQ(eng1->unacked_count(), 1u);
  ASSERT_TRUE(dst_got.empty());

  auto& pool2 = mem2.by_tenant(kTenant).pool();
  for (int i = 0; i < 10'000; ++i) {
    send_one();
    sched.run_until(sched.now() + 20'000);
    for (const auto& d : dst_got) pool2.release(d, mem::actor_function(kDstFn));
    dst_got.clear();
  }
  EXPECT_EQ(eng1->counters().acks_rx, 10'000u);
  EXPECT_EQ(eng1->unacked_count(), 1u);
  EXPECT_EQ(eng1->tenant_unacked(kTenant), 1u);
  EXPECT_EQ(eng1->counters().retransmits, 0u);

  // The late ACK for seq 1 retires it.
  net.send_datagram(kNode2, kNode1, rdma::Datagram{rdma::Datagram::Kind::kAck, 1});
  sched.run_until(sched.now() + 20'000);
  EXPECT_EQ(eng1->counters().acks_rx, 10'001u);
  EXPECT_EQ(eng1->unacked_count(), 0u);
  EXPECT_EQ(eng1->tenant_unacked(kTenant), 0u);
  EXPECT_EQ(eng1->counters().recycled, 10'001u);

  // An ACK for a retired or never-issued seq is ignored.
  for (std::uint64_t seq : {std::uint64_t{1}, std::uint64_t{5'000},
                            std::uint64_t{99'999}}) {
    net.send_datagram(kNode2, kNode1,
                      rdma::Datagram{rdma::Datagram::Kind::kAck, seq});
  }
  sched.run_until(sched.now() + 20'000);
  EXPECT_EQ(eng1->counters().acks_rx, 10'001u);
  EXPECT_EQ(eng1->counters().recycled, 10'001u);
  EXPECT_EQ(eng1->unacked_count(), 0u);
}

}  // namespace
}  // namespace pd::core
