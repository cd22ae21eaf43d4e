#include "rdma/rnic.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/check.hpp"
#include "proto/cost_model.hpp"
#include "rdma/connection.hpp"

namespace pd::rdma {
namespace {

constexpr TenantId kTenant{1};
constexpr NodeId kNode1{1};
constexpr NodeId kNode2{2};

/// Two-node RDMA cluster with one registered tenant pool per node.
class RnicTest : public ::testing::Test {
 protected:
  RnicTest()
      : net(sched),
        mem1(kNode1),
        mem2(kNode2),
        rnic1(net, kNode1, mem1),
        rnic2(net, kNode2, mem2) {
    for (auto* dom : {&mem1, &mem2}) {
      auto& tm = dom->create_tenant_pool(kTenant, "tenant_1", 32, 4096);
      tm.export_to_dpu();
      tm.export_to_rdma();
    }
    rnic1.register_memory(mem1.by_tenant(kTenant).pool_id());
    rnic2.register_memory(mem2.by_tenant(kTenant).pool_id());
  }

  /// Establish one RC connection and return the sender-side QP.
  QueuePair& connect() {
    QueuePair& a = rnic1.create_qp(kTenant);
    QueuePair& b = rnic2.create_qp(kTenant);
    bool connected = false;
    connect_qps(a, b, [&] { connected = true; });
    sched.run();
    EXPECT_TRUE(connected);
    a.activate(nullptr);
    b.activate(nullptr);
    sched.run();
    EXPECT_EQ(a.state(), QpState::kActive);
    return a;
  }

  /// Post `n` receive buffers on node 2 for the tenant.
  void post_receives(int n) {
    auto& pool = mem2.by_tenant(kTenant).pool();
    for (int i = 0; i < n; ++i) {
      auto d = pool.allocate(mem::actor_rnic(kNode2));
      ASSERT_TRUE(d.has_value());
      rnic2.post_srq_recv(kTenant, *d);
    }
  }

  /// Allocate a sender buffer containing `text`, owned by the RNIC.
  mem::BufferDescriptor sender_buffer(const char* text) {
    auto& pool = mem1.by_tenant(kTenant).pool();
    auto d = pool.allocate(mem::actor_rnic(kNode1));
    auto span = pool.access(*d, mem::actor_rnic(kNode1));
    std::memcpy(span.data(), text, std::strlen(text) + 1);
    return pool.resize(*d, mem::actor_rnic(kNode1),
                       static_cast<std::uint32_t>(std::strlen(text) + 1));
  }

  sim::Scheduler sched;
  RdmaNetwork net;
  mem::MemoryDomain mem1;
  mem::MemoryDomain mem2;
  Rnic rnic1;
  Rnic rnic2;
};

TEST_F(RnicTest, QpLookupIsByIdWithUnknownIdsRejected) {
  QueuePair& a = rnic1.create_qp(kTenant);
  QueuePair& b = rnic1.create_qp(TenantId{2});
  QueuePair& c = rnic2.create_qp(kTenant);
  EXPECT_EQ(&rnic1.qp(a.id()), &a);
  EXPECT_EQ(&rnic1.qp(b.id()), &b);
  EXPECT_EQ(rnic1.qp(b.id()).tenant(), TenantId{2});
  EXPECT_EQ(&rnic2.qp(c.id()), &c);
  // Same creation counter, other node: not this RNIC's QP.
  EXPECT_THROW((void)rnic1.qp(c.id()), CheckFailure);
  EXPECT_THROW((void)rnic1.qp(QpId{(kNode1.value() << 20) | 3}), CheckFailure);
  EXPECT_THROW((void)rnic1.qp(QpId{kNode1.value() << 20}), CheckFailure);
  EXPECT_THROW((void)rnic1.qp(QpId::invalid()), CheckFailure);
}

TEST_F(RnicTest, RegistrationRequiresRdmaExport) {
  mem::MemoryDomain dom(NodeId{9});
  auto& tm = dom.create_tenant_pool(TenantId{5}, "t5", 4, 64);
  Rnic rnic(net, NodeId{9}, dom);
  EXPECT_THROW(rnic.register_memory(tm.pool_id()), CheckFailure);
  tm.export_to_rdma();
  rnic.register_memory(tm.pool_id());
  EXPECT_TRUE(rnic.memory_registered(tm.pool_id()));
}

TEST_F(RnicTest, ConnectionSetupTakesTensOfMs) {
  QueuePair& a = rnic1.create_qp(kTenant);
  QueuePair& b = rnic2.create_qp(kTenant);
  bool connected = false;
  connect_qps(a, b, [&] { connected = true; });
  EXPECT_EQ(a.state(), QpState::kConnecting);
  sched.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(sched.now(), cost::kRcConnectNs);
  EXPECT_EQ(a.state(), QpState::kInactive);
  EXPECT_EQ(b.state(), QpState::kInactive);
  EXPECT_EQ(a.remote_node(), kNode2);
  EXPECT_EQ(b.remote_qp(), a.id());
}

TEST_F(RnicTest, PostSendOnInactiveQpRejected) {
  QueuePair& a = rnic1.create_qp(kTenant);
  QueuePair& b = rnic2.create_qp(kTenant);
  connect_qps(a, b, nullptr);
  sched.run();
  WorkRequest wr;
  EXPECT_THROW(a.post_send(wr), CheckFailure);
}

TEST_F(RnicTest, TwoSidedSendDeliversPayloadAndCompletions) {
  QueuePair& a = connect();
  post_receives(1);
  auto d = sender_buffer("hello palladium");

  WorkRequest wr;
  wr.wr_id = 42;
  wr.opcode = Opcode::kSend;
  wr.local = d;
  a.post_send(wr);
  EXPECT_EQ(a.outstanding(), 1);
  sched.run();
  EXPECT_EQ(a.outstanding(), 0);

  // Sender-side completion.
  auto send_cqes = rnic1.cq().poll(8);
  ASSERT_EQ(send_cqes.size(), 1u);
  EXPECT_EQ(send_cqes[0].wr_id, 42u);
  EXPECT_FALSE(send_cqes[0].is_recv);

  // Receiver-side completion with the payload in a tenant-pool buffer.
  auto recv_cqes = rnic2.cq().poll(8);
  ASSERT_EQ(recv_cqes.size(), 1u);
  const auto& c = recv_cqes[0];
  EXPECT_TRUE(c.is_recv);
  EXPECT_EQ(c.tenant, kTenant);
  auto& pool2 = mem2.by_tenant(kTenant).pool();
  auto span = pool2.access(c.buffer, mem::actor_rnic(kNode2));
  EXPECT_STREQ(reinterpret_cast<const char*>(span.data()), "hello palladium");
  EXPECT_EQ(c.byte_len, std::strlen("hello palladium") + 1);
  EXPECT_EQ(rnic1.counters().sends, 1u);
  EXPECT_EQ(rnic2.counters().recvs, 1u);
}

TEST_F(RnicTest, SrqUnderrunTriggersRnrAndRecovers) {
  QueuePair& a = connect();
  auto d = sender_buffer("delayed");
  WorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.local = d;
  a.post_send(wr);
  sched.run();
  // No receive buffer: message parked in RNR state, no recv CQE.
  EXPECT_EQ(rnic2.counters().rnr_events, 1u);
  EXPECT_EQ(rnic2.cq().depth(), 0u);

  post_receives(1);
  sched.run();
  auto cqes = rnic2.cq().poll(8);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_TRUE(cqes[0].is_recv);
}

TEST_F(RnicTest, SendUsesTenantSpecificSrq) {
  // Buffers posted for another tenant must not satisfy this tenant's sends.
  const TenantId other{2};
  for (auto* dom : {&mem1, &mem2}) {
    auto& tm = dom->create_tenant_pool(other, "tenant_2", 8, 4096);
    tm.export_to_rdma();
  }
  rnic2.register_memory(mem2.by_tenant(other).pool_id());
  auto& pool_other = mem2.by_tenant(other).pool();
  auto d_other = pool_other.allocate(mem::actor_rnic(kNode2));
  rnic2.post_srq_recv(other, *d_other);

  QueuePair& a = connect();
  auto d = sender_buffer("tenant1 data");
  WorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.local = d;
  a.post_send(wr);
  sched.run();
  EXPECT_EQ(rnic2.counters().rnr_events, 1u);  // tenant-1 SRQ was empty
  EXPECT_EQ(rnic2.srq_depth(other), 1u);       // tenant-2 buffer untouched
}

TEST_F(RnicTest, OneSidedWriteLandsWithoutReceiverCqe) {
  QueuePair& a = connect();
  // Receiver exposes slot 0 of its pool to the RNIC (ownership handoff).
  auto& pool2 = mem2.by_tenant(kTenant).pool();
  auto slot = pool2.allocate(mem::actor_rnic(kNode2));
  ASSERT_TRUE(slot.has_value());

  mem::BufferDescriptor landed{};
  rnic2.set_write_monitor(pool2.id(),
                          [&](const mem::BufferDescriptor& d, std::uint32_t) {
                            landed = d;
                          });

  auto src = sender_buffer("one-sided payload");
  WorkRequest wr;
  wr.opcode = Opcode::kWrite;
  wr.local = src;
  wr.remote_pool = pool2.id();
  wr.remote_index = slot->index;
  a.post_send(wr);
  sched.run();

  EXPECT_EQ(rnic2.cq().depth(), 0u);  // receiver CPU never notified via CQ
  EXPECT_EQ(landed.index, slot->index);
  auto span = pool2.access(landed, mem::actor_rnic(kNode2));
  EXPECT_STREQ(reinterpret_cast<const char*>(span.data()), "one-sided payload");
  EXPECT_EQ(rnic1.counters().writes, 1u);
}

TEST_F(RnicTest, CompareSwapExecutesRemotely) {
  QueuePair& a = connect();
  rnic2.set_atomic_word(0x1000, 0);

  WorkRequest lock;
  lock.wr_id = 7;
  lock.opcode = Opcode::kCompareSwap;
  lock.atomic_addr = 0x1000;
  lock.atomic_expect = 0;
  lock.atomic_desired = 1;
  a.post_send(lock);
  sched.run();

  auto cqes = rnic1.cq().poll(8);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].atomic_found, 0u);          // CAS succeeded
  EXPECT_EQ(rnic2.atomic_word(0x1000), 1u);     // lock taken

  // Second CAS fails and reports the holder.
  a.post_send(lock);
  sched.run();
  cqes = rnic1.cq().poll(8);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].atomic_found, 1u);          // found != expect: failed
  EXPECT_EQ(rnic2.atomic_word(0x1000), 1u);
}

TEST_F(RnicTest, LargerPayloadTakesLonger) {
  QueuePair& a = connect();
  post_receives(2);
  auto& pool1 = mem1.by_tenant(kTenant).pool();

  auto time_send = [&](std::uint32_t len) {
    auto d = pool1.allocate(mem::actor_rnic(kNode1));
    auto sized = pool1.resize(*d, mem::actor_rnic(kNode1), len);
    WorkRequest wr;
    wr.opcode = Opcode::kSend;
    wr.local = sized;
    const auto start = sched.now();
    a.post_send(wr);
    sched.run();
    // Wait for recv CQE.
    auto cqes = rnic2.cq().poll(8);
    EXPECT_EQ(cqes.size(), 1u);
    return sched.now() - start;
  };

  const auto t64 = time_send(64);
  const auto t4k = time_send(4096);
  EXPECT_GT(t4k, t64);
  // Shape check: one-way 64 B far below 10 µs; 4 KiB only a few µs more.
  EXPECT_LT(t64, 10'000);
  EXPECT_LT(t4k - t64, 8'000);
}

TEST_F(RnicTest, CqNotifyFiresOnEmptyToNonEmpty) {
  QueuePair& a = connect();
  post_receives(3);
  int notifications = 0;
  rnic2.cq().set_notify([&] { ++notifications; });

  auto send_one = [&] {
    auto d = sender_buffer("x");
    WorkRequest wr;
    wr.opcode = Opcode::kSend;
    wr.local = d;
    a.post_send(wr);
    sched.run();
  };
  send_one();
  EXPECT_EQ(notifications, 1);
  send_one();  // CQ not drained: no second edge notification
  EXPECT_EQ(notifications, 1);
  rnic2.cq().poll(8);
  send_one();
  EXPECT_EQ(notifications, 2);
}

TEST_F(RnicTest, UnregisteredPoolRejectedOnPost) {
  QueuePair& a = connect();
  auto& dom = mem1;
  auto& tm = dom.create_tenant_pool(TenantId{3}, "t3", 4, 64);
  tm.export_to_rdma();
  auto d = tm.pool().allocate(mem::actor_rnic(kNode1));
  WorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.local = *d;
  EXPECT_THROW(a.post_send(wr), CheckFailure);
}

}  // namespace
}  // namespace pd::rdma
