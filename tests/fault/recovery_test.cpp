// Engine reliability-layer tests: retransmission over lossy links, bounded
// retries with explicit error completions, admission shedding, and SRQ
// drain recovery — the per-mechanism half of the fault model (the chaos
// suite exercises them end to end).
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"

namespace pd::fault {
namespace {

using core::EngineConfig;
using core::EngineKind;
using core::MessageHeader;
using core::NetworkEngine;
using core::message_bytes;
using core::read_header;
using core::write_header;

constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};
constexpr TenantId kTenant{1};
constexpr FunctionId kSrcFn{1};
constexpr FunctionId kDstFn{2};
/// Frame loss rate of the lossy-link cases, both directions.
constexpr double kLinkLoss = 0.05;

/// Two engines, one fabric — plain struct (not a gtest fixture) so replay
/// tests can build several instances side by side.
struct Harness {
  Harness()
      : net(sched),
        mem1(kNode1),
        mem2(kNode2),
        rnic1(net, kNode1, mem1),
        rnic2(net, kNode2, mem2),
        dpu1(sched, kNode1),
        dpu2(sched, kNode2),
        fn_core1(sched, "fn1"),
        fn_core2(sched, "fn2") {}

  void build(EngineConfig config) {
    for (auto* dom : {&mem1, &mem2}) {
      auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", 128, 2048);
      tm.export_to_dpu();
      tm.export_to_rdma();
    }
    eng1 = std::make_unique<NetworkEngine>(sched, EngineKind::kDneOffPath,
                                           config, dpu1.core(0), rnic1, mem1,
                                           &dpu1);
    eng2 = std::make_unique<NetworkEngine>(sched, EngineKind::kDneOffPath,
                                           config, dpu2.core(0), rnic2, mem2,
                                           &dpu2);
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

  void send_one() {
    auto& pool = mem1.by_tenant(kTenant).pool();
    auto d = pool.allocate(mem::actor_function(kSrcFn));
    ASSERT_TRUE(d.has_value());
    MessageHeader h;
    h.request_id = next_id++;
    h.src_fn = kSrcFn.value();
    h.dst_fn = kDstFn.value();
    h.payload_len = 64;
    write_header(pool.access(*d, mem::actor_function(kSrcFn)), h);
    eng1->submit(kSrcFn, fn_core1,
                 pool.resize(*d, mem::actor_function(kSrcFn),
                             message_bytes(64)));
  }

  /// Errors delivered back to kSrcFn (releases them so leak checks hold).
  std::size_t drain_src_errors() {
    auto& pool = mem1.by_tenant(kTenant).pool();
    std::size_t n = 0;
    for (const auto& d : src_got) {
      const MessageHeader h =
          read_header(pool.access(d, mem::actor_function(kSrcFn)));
      if (h.is_error()) ++n;
      pool.release(d, mem::actor_function(kSrcFn));
    }
    src_got.clear();
    return n;
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
};

TEST(Recovery, LossyLinkRetransmitsUntilAllDelivered) {
  Harness t;
  t.build(EngineConfig{});  // 4 attempts per message
  t.net.fabric().set_fault_seed(0xC0FFEE);
  // Both directions: data + ACKs. Light enough that 4 attempts deliver
  // every message.
  t.net.fabric().set_node_loss(kNode2, kLinkLoss);

  for (int i = 0; i < 20; ++i) t.send_one();
  t.sched.run();

  // Exactly-once delivery to the application: every message arrives, none
  // twice (retransmit duplicates are suppressed at the receiver).
  EXPECT_EQ(t.dst_got.size(), 20u);
  EXPECT_GT(t.eng1->counters().retransmits, 0u);
  EXPECT_EQ(t.eng1->counters().send_failures, 0u);
  // Sender retired every buffer (acked + recycled).
  EXPECT_EQ(t.eng1->counters().recycled, 20u);
}

TEST(Recovery, LossyLinkReplayIsBitIdenticalPerSeed) {
  auto run = [](std::uint64_t seed) {
    Harness t;
    t.build(EngineConfig{});
    t.net.fabric().set_fault_seed(seed);
    t.net.fabric().set_node_loss(kNode2, kLinkLoss);
    for (int i = 0; i < 20; ++i) t.send_one();
    t.sched.run();
    return std::tuple(t.sched.now(), t.eng1->counters().retransmits,
                      t.eng1->counters().acks_rx, t.eng2->counters().dup_rx,
                      t.net.fabric().frames_dropped());
  };
  EXPECT_EQ(run(41), run(41));
  EXPECT_NE(run(41), run(42));
}

TEST(Recovery, DeadLinkExhaustsRetriesAndFailsExplicitly) {
  Harness t;
  t.build(EngineConfig{});  // 4 attempts
  t.net.fabric().set_node_down(kNode2, true);

  t.send_one();
  t.sched.run();

  EXPECT_EQ(t.dst_got.size(), 0u);
  EXPECT_EQ(t.eng1->counters().retransmits, 3u);  // attempts 2..4
  EXPECT_EQ(t.eng1->counters().send_failures, 1u);
  // The sender function got an explicit error completion, not silence.
  EXPECT_EQ(t.drain_src_errors(), 1u);
  // No leaked buffers: all of tenant 1's pool is back (minus the SRQ fill).
  auto& pool = t.mem1.by_tenant(kTenant).pool();
  EXPECT_EQ(pool.available(), pool.capacity() - 64u);
}

TEST(Recovery, LinkRecoveryDeliversSubsequentTraffic) {
  Harness t;
  t.build(EngineConfig{});
  t.net.fabric().set_node_down(kNode2, true);
  t.send_one();
  t.sched.run();
  EXPECT_EQ(t.drain_src_errors(), 1u);

  t.net.fabric().set_node_down(kNode2, false);
  t.send_one();
  t.sched.run();
  EXPECT_EQ(t.dst_got.size(), 1u);
}

TEST(Recovery, AdmissionCapShedsWithErrorCompletions) {
  Harness t;
  EngineConfig cfg;
  cfg.max_unacked = 4;
  t.build(cfg);
  t.net.fabric().set_node_down(kNode2, true);  // ACKs can never arrive

  // Fill the unacked window first (let the 4 reach transmit — retransmit
  // timers are 100 µs, so none resolve yet), then pile on 6 more.
  for (int i = 0; i < 4; ++i) t.send_one();
  t.sched.run_until(t.sched.now() + 50'000);
  for (int i = 0; i < 6; ++i) t.send_one();
  t.sched.run();

  // 4 admitted (and later failed by retry exhaustion), 6 shed on arrival.
  EXPECT_EQ(t.eng1->counters().requests_shed, 6u);
  EXPECT_EQ(t.eng1->counters().send_failures, 4u);
  EXPECT_EQ(t.drain_src_errors(), 10u);  // every message failed *explicitly*
}

TEST(Recovery, SrqDrainRecoversViaRnrAndReplenisher) {
  Harness t;
  EngineConfig cfg;
  // Slow the replenisher so the send lands mid-underrun and takes the RNR
  // path (a period dividing the 20 ms connection setup would tick exactly
  // at drain time and refill first).
  cfg.replenish_period = 3'000'000;
  t.build(cfg);
  const std::size_t drained = t.rnic2.drain_all_srqs();
  EXPECT_EQ(drained, 64u);  // default srq_fill

  t.send_one();
  // Recovery rides the background replenish tick — drive time forward.
  t.sched.run_until(t.sched.now() + 20'000'000);
  EXPECT_EQ(t.dst_got.size(), 1u);
  EXPECT_GT(t.rnic2.counters().rnr_events, 0u);
}

TEST(Recovery, QpFailureRebuildsAndDelivers) {
  Harness t;
  t.build(EngineConfig{});
  t.send_one();
  t.sched.run();
  ASSERT_EQ(t.dst_got.size(), 1u);

  // Fabric fault: every QP between the two nodes errors out.
  t.net.fail_node_qps(kNode2);
  t.send_one();
  t.sched.run();

  EXPECT_EQ(t.dst_got.size(), 2u);
  EXPECT_GT(t.eng1->connections().stats().reestablishments, 0u);
}

TEST(Recovery, FaultPlanGenerationIsDeterministic) {
  const std::vector<NodeId> nodes{kNode1, kNode2};
  const FaultPlan a = FaultPlan::generate(7, nodes);
  const FaultPlan b = FaultPlan::generate(7, nodes);
  const FaultPlan c = FaultPlan::generate(8, nodes);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
  }
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
  // Episodes never overlap: each starts after the previous one ended.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_GT(a.events[i].at, a.events[i - 1].at + a.events[i - 1].duration);
  }
}

}  // namespace
}  // namespace pd::fault
