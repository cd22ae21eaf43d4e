#include "mem/memory_domain.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace pd::mem {
namespace {

TEST(MemoryDomain, CreateAndAttachByPrefix) {
  MemoryDomain dom(NodeId{1});
  auto& tm = dom.create_tenant_pool(TenantId{1}, "tenant_1", 16, 1_KiB);
  EXPECT_EQ(tm.file_prefix(), "tenant_1");
  EXPECT_EQ(dom.attach("tenant_1"), &tm);
  EXPECT_EQ(dom.attach("tenant_2"), nullptr);  // no cross-tenant guessing
}

TEST(MemoryDomain, PrefixAndTenantUniquenessEnforced) {
  MemoryDomain dom(NodeId{1});
  dom.create_tenant_pool(TenantId{1}, "tenant_1", 4, 64);
  EXPECT_THROW(dom.create_tenant_pool(TenantId{2}, "tenant_1", 4, 64),
               CheckFailure);
  EXPECT_THROW(dom.create_tenant_pool(TenantId{1}, "tenant_1b", 4, 64),
               CheckFailure);
}

TEST(MemoryDomain, LookupByTenantAndPool) {
  MemoryDomain dom(NodeId{3});
  auto& a = dom.create_tenant_pool(TenantId{1}, "a", 4, 64);
  auto& b = dom.create_tenant_pool(TenantId{2}, "b", 4, 64);
  EXPECT_EQ(&dom.by_tenant(TenantId{1}), &a);
  EXPECT_EQ(&dom.by_pool(b.pool_id()), &b);
  EXPECT_NO_THROW(dom.by_tenant(TenantId{2}));
  EXPECT_THROW(dom.by_tenant(TenantId{9}), CheckFailure);
}

TEST(MemoryDomain, PoolIdsUniqueAcrossNodes) {
  MemoryDomain n1(NodeId{1});
  MemoryDomain n2(NodeId{2});
  auto& a = n1.create_tenant_pool(TenantId{1}, "t1", 4, 64);
  auto& b = n2.create_tenant_pool(TenantId{1}, "t1", 4, 64);
  EXPECT_NE(a.pool_id(), b.pool_id());
}

TEST(MemoryDomain, IsolationBetweenTenantPools) {
  MemoryDomain dom(NodeId{1});
  auto& t1 = dom.create_tenant_pool(TenantId{1}, "t1", 4, 64);
  auto& t2 = dom.create_tenant_pool(TenantId{2}, "t2", 4, 64);
  const Actor f1 = actor_function(FunctionId{1});
  auto d = t1.pool().allocate(f1);
  // A descriptor from tenant 1's pool is rejected by tenant 2's pool.
  EXPECT_THROW(t2.pool().access(*d, f1), CheckFailure);
}

TEST(MemoryDomain, ExportFlagsForCrossProcessorSharing) {
  MemoryDomain dom(NodeId{1});
  auto& tm = dom.create_tenant_pool(TenantId{1}, "t1", 4, 64);
  EXPECT_FALSE(tm.exported_to_dpu());
  EXPECT_FALSE(tm.exported_to_rdma());
  tm.export_to_dpu();
  tm.export_to_rdma();
  EXPECT_TRUE(tm.exported_to_dpu());
  EXPECT_TRUE(tm.exported_to_rdma());
}

TEST(MemoryDomain, FootprintSumsPools) {
  MemoryDomain dom(NodeId{1});
  dom.create_tenant_pool(TenantId{1}, "t1", 4, 1_KiB);
  dom.create_tenant_pool(TenantId{2}, "t2", 2, 2_KiB);
  EXPECT_EQ(dom.footprint(), 4 * 1_KiB + 2 * 2_KiB);
  EXPECT_EQ(dom.num_pools(), 2u);
}

TEST(MemoryDomain, TouchedBytesSumPools) {
  MemoryDomain dom(NodeId{1});
  auto& t1 = dom.create_tenant_pool(TenantId{1}, "t1", 4, 1_KiB);
  auto& t2 = dom.create_tenant_pool(TenantId{2}, "t2", 2, 2_KiB);
  EXPECT_EQ(dom.touched_bytes(), 0u);
  const Actor f = actor_function(FunctionId{1});
  (void)t1.pool().allocate(f);
  (void)t1.pool().allocate(f);
  (void)t2.pool().allocate(f);
  EXPECT_EQ(dom.touched_bytes(), 2 * 1_KiB + 1 * 2_KiB);
  EXPECT_EQ(dom.footprint(), 4 * 1_KiB + 2 * 2_KiB);
}

}  // namespace
}  // namespace pd::mem
