#include "dpu/dpu.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "dpu/comch.hpp"
#include "dpu/mmap.hpp"

namespace pd::dpu {
namespace {

TEST(SocDma, BaseLatencyMatchesCharacterization) {
  // 64 B DMA read ≈ 2.6 µs ([90], §4.1.1).
  sim::Scheduler sched;
  SocDmaEngine dma(sched);
  sim::TimePoint done = -1;
  dma.transfer(64, [&] { done = sched.now(); });
  sched.run();
  EXPECT_GE(done, 2'600);
  EXPECT_LT(done, 2'800);  // base + 64 B at the slow per-byte rate
}

TEST(SocDma, SerializesConcurrentTransfers) {
  // The SoC DMA engine's poor concurrency: parallel ops queue up.
  sim::Scheduler sched;
  SocDmaEngine dma(sched);
  std::vector<sim::TimePoint> done;
  for (int i = 0; i < 3; ++i) {
    dma.transfer(4096, [&] { done.push_back(sched.now()); });
  }
  EXPECT_GT(dma.backlog(), 0);
  sched.run();
  ASSERT_EQ(done.size(), 3u);
  const auto single = done[0];
  EXPECT_NEAR(static_cast<double>(done[1]), static_cast<double>(2 * single), 2);
  EXPECT_NEAR(static_cast<double>(done[2]), static_cast<double>(3 * single), 3);
  EXPECT_EQ(dma.transfers(), 3u);
  EXPECT_EQ(dma.bytes_moved(), 3u * 4096u);
}

TEST(Dpu, WimpyCoresRunSlower) {
  sim::Scheduler sched;
  Dpu dpu(sched, NodeId{1});
  sim::Core host(sched, "host", 1.0);
  sim::TimePoint dpu_done = 0, host_done = 0;
  dpu.core(0).submit(10'000, [&] { dpu_done = sched.now(); });
  host.submit(10'000, [&] { host_done = sched.now(); });
  sched.run();
  EXPECT_EQ(host_done, 10'000);
  EXPECT_EQ(dpu_done, 20'000);  // kDpuCoreSpeed = 0.5
}

TEST(Mmap, ImportRequiresPciExport) {
  mem::MemoryDomain dom(NodeId{1});
  auto& tm = dom.create_tenant_pool(TenantId{1}, "t1", 4, 64);
  EXPECT_THROW(CrossProcessorMmap::import_export_descriptor(tm), CheckFailure);
  tm.export_to_dpu();
  auto mmap = CrossProcessorMmap::import_export_descriptor(tm);
  EXPECT_EQ(mmap.pool_id(), tm.pool_id());
  EXPECT_FALSE(mmap.rnic_registrable());
  tm.export_to_rdma();
  EXPECT_TRUE(mmap.rnic_registrable());
}

class ComchTest : public ::testing::Test {
 protected:
  ComchTest() : dpu_core(sched, "dne", 0.5) {}

  mem::BufferDescriptor desc(std::uint32_t i) {
    return {PoolId{1}, i, 16, TenantId{1}};
  }

  sim::Scheduler sched;
  sim::Core dpu_core;
};

TEST_F(ComchTest, EventVariantRoundTrip) {
  std::vector<std::uint32_t> server_got;
  ComchServer server(sched, dpu_core, ComchVariant::kEvent,
                     [&](FunctionId, const mem::BufferDescriptor& d) {
                       server_got.push_back(d.index);
                     });
  sim::Core fn_core(sched, "fn");
  std::vector<std::uint32_t> client_got;
  server.connect(FunctionId{1}, fn_core,
                 [&](const mem::BufferDescriptor& d) {
                   client_got.push_back(d.index);
                 });
  server.send_to_server(FunctionId{1}, desc(7));
  server.send_to_client(FunctionId{1}, desc(9));
  sched.run();
  EXPECT_EQ(server_got, std::vector<std::uint32_t>{7});
  EXPECT_EQ(client_got, std::vector<std::uint32_t>{9});
  EXPECT_EQ(server.to_server_msgs(), 1u);
  EXPECT_EQ(server.to_client_msgs(), 1u);
  // Event-driven mode never pins the function core.
  EXPECT_FALSE(fn_core.busy_poll());
}

TEST_F(ComchTest, PollingVariantPinsHostCore) {
  ComchServer server(sched, dpu_core, ComchVariant::kPolling,
                     [](FunctionId, const mem::BufferDescriptor&) {});
  sim::Core fn_core(sched, "fn");
  server.connect(FunctionId{1}, fn_core, [](const mem::BufferDescriptor&) {});
  EXPECT_TRUE(fn_core.busy_poll());
}

TEST_F(ComchTest, PollingLatencyBeatsEventAtLowLoad) {
  auto rtt = [&](ComchVariant variant) {
    sim::Scheduler s2;
    sim::Core dne(s2, "dne", 0.5);
    sim::Core fn(s2, "fn");
    sim::TimePoint done = -1;
    ComchServer* srv_ptr = nullptr;
    ComchServer srv(s2, dne, variant,
                    [&](FunctionId from, const mem::BufferDescriptor& d) {
                      srv_ptr->send_to_client(from, d);  // echo
                    });
    srv_ptr = &srv;
    srv.connect(FunctionId{1}, fn,
                [&](const mem::BufferDescriptor&) { done = s2.now(); });
    srv.send_to_server(FunctionId{1}, {PoolId{1}, 0, 16, TenantId{1}});
    s2.run();
    return done;
  };
  EXPECT_GT(rtt(ComchVariant::kEvent), 2 * rtt(ComchVariant::kPolling));
}

TEST_F(ComchTest, PollingDequeueCostGrowsWithClients) {
  // The progress-engine epoll scan makes the per-message server cost grow
  // linearly with connected endpoints — Comch-P's scalability wall.
  auto server_cost = [&](int clients) {
    sim::Scheduler s2;
    sim::Core dne(s2, "dne", 0.5);
    std::vector<std::unique_ptr<sim::Core>> fns;
    ComchServer srv(s2, dne, ComchVariant::kPolling,
                    [](FunctionId, const mem::BufferDescriptor&) {});
    for (int i = 0; i < clients; ++i) {
      fns.push_back(std::make_unique<sim::Core>(s2, "fn"));
      srv.connect(FunctionId{static_cast<std::uint32_t>(i + 1)}, *fns.back(),
                  [](const mem::BufferDescriptor&) {});
    }
    srv.send_to_server(FunctionId{1}, {PoolId{1}, 0, 16, TenantId{1}});
    s2.run();
    return dne.busy_ns();
  };
  EXPECT_GT(server_cost(8), server_cost(1) + 6 * cost::kComchPPollPerEndpointNs);
}

TEST_F(ComchTest, UnconnectedClientCannotSend) {
  ComchServer server(sched, dpu_core, ComchVariant::kEvent,
                     [](FunctionId, const mem::BufferDescriptor&) {});
  sim::Core fn_core(sched, "fn");
  server.connect(FunctionId{1}, fn_core, [](const mem::BufferDescriptor&) {});
  EXPECT_THROW(server.send_to_server(FunctionId{2}, desc(0)), CheckFailure);
  EXPECT_THROW(server.send_to_client(FunctionId{2}, desc(0)), CheckFailure);
}

}  // namespace
}  // namespace pd::dpu
