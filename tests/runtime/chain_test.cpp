#include "runtime/chain.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace pd::runtime {
namespace {

Chain one_hop(std::uint32_t id, TenantId tenant) {
  return Chain{id, "c" + std::to_string(id), tenant, 64,
               {{FunctionId{1}, 1'000, 64}}};
}

TEST(ChainTable, UnknownIdThrows) {
  ChainTable t;
  t.add(one_hop(1, TenantId{1}));
  EXPECT_FALSE(t.has(2));
  EXPECT_THROW(static_cast<void>(t.by_id(2)), CheckFailure);
  EXPECT_THROW(static_cast<void>(t.by_id(1u << 16)), CheckFailure);
}

TEST(ChainTable, DuplicateIdThrows) {
  ChainTable t;
  t.add(one_hop(3, TenantId{1}));
  EXPECT_THROW(t.add(one_hop(3, TenantId{2})), CheckFailure);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.by_id(3).tenant, TenantId{1});  // the first add stands
}

TEST(ChainTable, ChainWithNoHopsRejected) {
  ChainTable t;
  EXPECT_THROW(t.add(Chain{4, "empty", TenantId{1}, 64, {}}), CheckFailure);
  EXPECT_FALSE(t.has(4));
  EXPECT_EQ(t.size(), 0u);
}

TEST(ChainTable, SparseIdRoundTrips) {
  ChainTable t;
  constexpr std::uint32_t kSparse = (1u << 16) + 5;
  t.add(one_hop(kSparse, TenantId{2}));
  t.add(one_hop(5, TenantId{1}));  // same low bits, dense path
  ASSERT_TRUE(t.has(kSparse));
  EXPECT_EQ(t.by_id(kSparse).id, kSparse);
  EXPECT_EQ(t.by_id(kSparse).tenant, TenantId{2});
  EXPECT_EQ(t.by_id(5).tenant, TenantId{1});
  EXPECT_THROW(t.add(one_hop(kSparse, TenantId{3})), CheckFailure);
  EXPECT_EQ(t.size(), 2u);
}

}  // namespace
}  // namespace pd::runtime
