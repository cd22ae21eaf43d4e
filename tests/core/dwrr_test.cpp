#include "core/dwrr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "common/check.hpp"

namespace pd::core {
namespace {

TEST(Dwrr, EmptyDequeueReturnsNullopt) {
  DwrrScheduler<int> s;
  s.add_tenant(TenantId{1}, 1);
  EXPECT_FALSE(s.dequeue().has_value());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Dwrr, SingleTenantFifo) {
  DwrrScheduler<int> s;
  s.add_tenant(TenantId{1}, 3);
  for (int i = 0; i < 5; ++i) s.enqueue(TenantId{1}, i);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*s.dequeue(), i);
  EXPECT_FALSE(s.dequeue().has_value());
}

TEST(Dwrr, UnknownTenantRejected) {
  DwrrScheduler<int> s;
  EXPECT_THROW(s.enqueue(TenantId{9}, 1), CheckFailure);
  s.add_tenant(TenantId{1}, 1);
  EXPECT_THROW(s.add_tenant(TenantId{1}, 2), CheckFailure);
  EXPECT_THROW(s.add_tenant(TenantId{2}, 0), CheckFailure);
}

TEST(Dwrr, ServesInRegistrationOrderNotIdOrder) {
  DwrrScheduler<int> s;
  s.add_tenant(TenantId{5}, 1);
  s.add_tenant(TenantId{2}, 1);
  s.add_tenant(TenantId{9}, 1);
  for (int round = 0; round < 2; ++round) {
    s.enqueue(TenantId{9}, 90 + round);
    s.enqueue(TenantId{2}, 20 + round);
    s.enqueue(TenantId{5}, 50 + round);
  }
  EXPECT_EQ(s.pending_for(TenantId{2}), 2u);
  EXPECT_EQ(s.pending_for(TenantId{7}), 0u);  // unknown tenant
  EXPECT_EQ(s.deficit_of(TenantId{7}), 0u);
  std::vector<int> order;
  while (auto item = s.dequeue()) order.push_back(*item);
  EXPECT_EQ(order, (std::vector<int>{50, 20, 90, 51, 21, 91}));
}

TEST(Dwrr, BackloggedSharesMatchWeights) {
  // The Fig. 15 property: with all tenants backlogged, dequeues split
  // 6:1:2 by weight.
  DwrrScheduler<int> s;
  s.add_tenant(TenantId{1}, 6);
  s.add_tenant(TenantId{2}, 1);
  s.add_tenant(TenantId{3}, 2);
  constexpr int kPerTenant = 900;
  for (int i = 0; i < kPerTenant; ++i) {
    for (std::uint32_t t = 1; t <= 3; ++t) s.enqueue(TenantId{t}, static_cast<int>(t));
  }
  std::map<int, int> served;
  for (int i = 0; i < 900; ++i) {
    auto v = s.dequeue();
    ASSERT_TRUE(v.has_value());
    ++served[*v];
  }
  EXPECT_NEAR(served[1], 600, 12);
  EXPECT_NEAR(served[2], 100, 12);
  EXPECT_NEAR(served[3], 200, 12);
}

class DwrrWeights
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(DwrrWeights, ShareProportionalToArbitraryWeights) {
  const auto weights = GetParam();
  DwrrScheduler<std::size_t> s;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    s.add_tenant(TenantId{static_cast<std::uint32_t>(i + 1)}, weights[i]);
  }
  const std::uint64_t wsum = std::accumulate(weights.begin(), weights.end(), 0u);
  const int rounds = 200;
  // Keep every queue backlogged throughout.
  for (std::size_t i = 0; i < weights.size(); ++i) {
    for (std::uint64_t k = 0; k < weights[i] * rounds + 100; ++k) {
      s.enqueue(TenantId{static_cast<std::uint32_t>(i + 1)}, i);
    }
  }
  std::vector<int> served(weights.size(), 0);
  const std::uint64_t total = wsum * rounds;
  for (std::uint64_t i = 0; i < total; ++i) {
    auto v = s.dequeue();
    ASSERT_TRUE(v.has_value());
    ++served[*v];
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = static_cast<double>(weights[i]) * rounds;
    EXPECT_NEAR(served[i], expected, expected * 0.02 + 2.0)
        << "tenant " << i << " weight " << weights[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightVectors, DwrrWeights,
    ::testing::Values(std::vector<std::uint32_t>{1, 1},
                      std::vector<std::uint32_t>{6, 1, 2},
                      std::vector<std::uint32_t>{10, 1},
                      std::vector<std::uint32_t>{3, 3, 3, 3},
                      std::vector<std::uint32_t>{7, 2, 5, 1, 9}));

TEST(Dwrr, IdleTenantDoesNotAccumulateCredit) {
  // A tenant that was idle must not burst ahead when it returns (empty
  // queues drop their deficit — standard DRR).
  DwrrScheduler<int> s;
  s.add_tenant(TenantId{1}, 1);
  s.add_tenant(TenantId{2}, 1);
  // Tenant 1 alone for a while.
  for (int i = 0; i < 50; ++i) s.enqueue(TenantId{1}, 1);
  for (int i = 0; i < 50; ++i) s.dequeue();
  // Now both backlogged: shares must be ~equal despite tenant 2's absence.
  for (int i = 0; i < 100; ++i) {
    s.enqueue(TenantId{1}, 1);
    s.enqueue(TenantId{2}, 2);
  }
  std::map<int, int> served;
  for (int i = 0; i < 100; ++i) ++served[*s.dequeue()];
  EXPECT_NEAR(served[1], 50, 2);
  EXPECT_NEAR(served[2], 50, 2);
}

TEST(Dwrr, SizeAwareFairness) {
  // With byte-sized items, shares are proportional in *bytes*, not items:
  // tenant 2 sends items 4x larger, so gets 1/4 the items at equal weight.
  DwrrScheduler<int> s(/*quantum_base=*/4);
  s.add_tenant(TenantId{1}, 1);
  s.add_tenant(TenantId{2}, 1);
  for (int i = 0; i < 400; ++i) {
    s.enqueue(TenantId{1}, 1, 1);
    s.enqueue(TenantId{2}, 2, 4);
  }
  std::map<int, int> served;
  for (int i = 0; i < 250; ++i) ++served[*s.dequeue()];
  EXPECT_NEAR(served[1] / 4.0, served[2], 8.0);
}

TEST(Dwrr, OversizedItemStillMakesProgress) {
  DwrrScheduler<int> s(/*quantum_base=*/1);
  s.add_tenant(TenantId{1}, 1);
  s.enqueue(TenantId{1}, 42, /*size=*/1000);  // larger than any quantum
  auto v = s.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(Fcfs, ServesInArrivalOrderAcrossTenants) {
  FcfsScheduler<int> s;
  s.enqueue(TenantId{1}, 1);
  s.enqueue(TenantId{2}, 2);
  s.enqueue(TenantId{1}, 3);
  EXPECT_EQ(*s.dequeue(), 1);
  EXPECT_EQ(*s.dequeue(), 2);
  EXPECT_EQ(*s.dequeue(), 3);
  EXPECT_FALSE(s.dequeue().has_value());
}

}  // namespace
}  // namespace pd::core
