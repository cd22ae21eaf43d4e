#include "common/id_table.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/dataplane.hpp"
#include "core/routing.hpp"
#include "ingress/palladium_ingress.hpp"
#include "ipc/skmsg.hpp"

namespace pd {
namespace {

TEST(IdTable, DenseAndSparseIdsRoundTrip) {
  IdTable<FunctionId, int> t;
  const FunctionId dense{7};
  ASSERT_NE(t.insert(dense, 1), nullptr);
  ASSERT_NE(t.insert(ingress::kIngressEntry, 2), nullptr);  // 0xFFFF1000
  ASSERT_NE(t.insert(FunctionId::invalid(), 3), nullptr);
  ASSERT_NE(t.insert(FunctionId{0}, 4), nullptr);
  EXPECT_EQ(*t.find(dense), 1);
  EXPECT_EQ(*t.find(ingress::kIngressEntry), 2);
  EXPECT_EQ(*t.find(FunctionId::invalid()), 3);
  EXPECT_EQ(*t.find(FunctionId{0}), 4);
  EXPECT_EQ(t.size(), 4u);
}

TEST(IdTable, AbsentIdsReportAbsent) {
  IdTable<NodeId, int> t;
  EXPECT_EQ(t.find(NodeId{0}), nullptr);  // empty table
  t.insert(NodeId{5}, 1);
  EXPECT_FALSE(t.contains(NodeId{4}));      // dense, below the last slot
  EXPECT_FALSE(t.contains(NodeId{6}));      // dense, past the last slot
  EXPECT_FALSE(t.contains(NodeId{0xFFFF}));  // below the sparse bound
  EXPECT_FALSE(t.contains(NodeId::invalid()));  // sparse
  t.insert(NodeId{0xFFFF0000}, 2);
  EXPECT_FALSE(t.contains(NodeId{0xFFFF0001}));
  EXPECT_FALSE(t.contains(NodeId::invalid()));
  EXPECT_EQ(*t.find(NodeId{5}), 1);
  EXPECT_EQ(*t.find(NodeId{0xFFFF0000}), 2);
  EXPECT_EQ(t.size(), 2u);
}

TEST(IdTable, DuplicateInsertKeepsTheFirstValue) {
  IdTable<TenantId, int> t;
  for (const TenantId id : {TenantId{3}, TenantId::invalid()}) {
    ASSERT_NE(t.insert(id, 1), nullptr);
    EXPECT_EQ(t.insert(id, 2), nullptr);
    EXPECT_EQ(*t.find(id), 1);
  }
  EXPECT_EQ(t.size(), 2u);
  t[TenantId{3}] = 5;  // operator[] finds, and inserts only when absent
  t[TenantId{9}] += 2;
  EXPECT_EQ(*t.find(TenantId{3}), 5);
  EXPECT_EQ(*t.find(TenantId{9}), 2);
}

TEST(IdTable, VisitsInInsertionOrder) {
  IdTable<FunctionId, int> t;
  t.insert(FunctionId::invalid(), 0);
  t.insert(FunctionId{9}, 0);
  t.insert(core::kEngineSocket, 0);
  t.insert(FunctionId{2}, 0);
  std::vector<FunctionId> seen;
  t.for_each([&](FunctionId id, int&) { seen.push_back(id); });
  const std::vector<FunctionId> want{FunctionId::invalid(), FunctionId{9},
                                     core::kEngineSocket, FunctionId{2}};
  EXPECT_EQ(seen, want);
}

TEST(IdTable, DuplicateRegistrationStillThrows) {
  core::InterNodeRoutingTable routes;
  routes.add_route(ingress::kIngressEntry, NodeId{1});
  EXPECT_EQ(routes.lookup(ingress::kIngressEntry), NodeId{1});
  EXPECT_THROW(routes.add_route(ingress::kIngressEntry, NodeId{2}),
               CheckFailure);
  EXPECT_THROW((void)routes.lookup(core::kEngineSocket), CheckFailure);

  core::IntraNodeRoutingTable local;
  local.add_local(FunctionId::invalid());
  EXPECT_TRUE(local.is_local(FunctionId::invalid()));
  EXPECT_THROW(local.add_local(FunctionId::invalid()), CheckFailure);

  sim::Scheduler sched;
  sim::Core core(sched, "c");
  ipc::SockMap sockmap(sched);
  int delivered = 0;
  sockmap.register_socket(core::kEngineSocket, core,
                          [&](const mem::BufferDescriptor&) { ++delivered; });
  EXPECT_THROW(sockmap.register_socket(core::kEngineSocket, core,
                                       [](const mem::BufferDescriptor&) {}),
               CheckFailure);
  EXPECT_THROW(sockmap.send(FunctionId{1}, mem::BufferDescriptor{}, nullptr),
               CheckFailure);
  sockmap.send(core::kEngineSocket, mem::BufferDescriptor{}, nullptr);
  sched.run();
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace pd
