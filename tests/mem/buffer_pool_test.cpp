#include "mem/buffer_pool.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace pd::mem {
namespace {

constexpr PoolId kPool{1};
constexpr TenantId kTenant{7};
const Actor kFnA = actor_function(FunctionId{10});
const Actor kFnB = actor_function(FunctionId{11});
const Actor kEngine = actor_engine(NodeId{1});

BufferPool make_pool(std::size_t count = 4, Bytes size = 256) {
  return BufferPool(kPool, kTenant, count, size);
}

TEST(BufferPool, AllocateAndRelease) {
  auto pool = make_pool();
  EXPECT_EQ(pool.available(), 4u);
  auto d = pool.allocate(kFnA);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(pool.available(), 3u);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(d->tenant, kTenant);
  pool.release(*d, kFnA);
  EXPECT_EQ(pool.available(), 4u);
}

TEST(BufferPool, ExhaustionReturnsNullopt) {
  auto pool = make_pool(2);
  auto a = pool.allocate(kFnA);
  auto b = pool.allocate(kFnA);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(pool.allocate(kFnA).has_value());
  pool.release(*a, kFnA);
  EXPECT_TRUE(pool.allocate(kFnA).has_value());
}

TEST(BufferPool, LifoRecycling) {
  // Most recently freed buffer is handed out first (cache-friendly, like
  // rte_mempool's per-core cache).
  auto pool = make_pool();
  auto a = pool.allocate(kFnA);
  pool.release(*a, kFnA);
  auto b = pool.allocate(kFnA);
  EXPECT_EQ(a->index, b->index);
}

TEST(BufferPool, PayloadReadWriteRoundTrip) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  auto span = pool.access(*d, kFnA);
  ASSERT_EQ(span.size(), 256u);
  const char msg[] = "GET /product HTTP/1.1";
  std::memcpy(span.data(), msg, sizeof msg);
  auto rd = pool.access(*d, kFnA);
  EXPECT_EQ(0, std::memcmp(rd.data(), msg, sizeof msg));
}

TEST(BufferPool, OwnershipTransferEnablesNewOwnerOnly) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  pool.transfer(*d, kFnA, kEngine);
  EXPECT_EQ(pool.owner_of(*d).kind, ActorKind::kNetworkEngine);
  // Old owner can no longer touch the buffer: the token has moved.
  EXPECT_THROW(pool.access(*d, kFnA), CheckFailure);
  EXPECT_THROW(pool.release(*d, kFnA), CheckFailure);
  EXPECT_NO_THROW(pool.access(*d, kEngine));
  pool.release(*d, kEngine);
}

TEST(BufferPool, TransferByNonOwnerRejected) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  EXPECT_THROW(pool.transfer(*d, kFnB, kEngine), CheckFailure);
}

TEST(BufferPool, DoubleReleaseRejected) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  pool.release(*d, kFnA);
  EXPECT_THROW(pool.release(*d, kFnA), CheckFailure);
}

TEST(BufferPool, UseAfterFreeRejected) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  pool.release(*d, kFnA);
  EXPECT_THROW(pool.access(*d, kFnA), CheckFailure);
}

TEST(BufferPool, ForeignDescriptorRejected) {
  auto pool = make_pool();
  BufferPool other(PoolId{2}, kTenant, 2, 64);
  auto d = other.allocate(kFnA);
  EXPECT_THROW(pool.access(*d, kFnA), CheckFailure);
}

TEST(BufferPool, TenantMismatchRejected) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  BufferDescriptor forged = *d;
  forged.tenant = TenantId{99};
  EXPECT_THROW(pool.access(forged, kFnA), CheckFailure);
}

TEST(BufferPool, ResizeSetsLengthWithinBounds) {
  auto pool = make_pool();
  auto d = pool.allocate(kFnA);
  auto d2 = pool.resize(*d, kFnA, 100);
  EXPECT_EQ(d2.length, 100u);
  EXPECT_THROW(pool.resize(*d, kFnA, 1000), CheckFailure);
}

TEST(BufferPool, HighWaterMarkTracksPeak) {
  auto pool = make_pool(4);
  auto a = pool.allocate(kFnA);
  auto b = pool.allocate(kFnA);
  auto c = pool.allocate(kFnA);
  pool.release(*b, kFnA);
  pool.release(*c, kFnA);
  EXPECT_EQ(pool.high_water(), 3u);
  pool.release(*a, kFnA);
  EXPECT_EQ(pool.high_water(), 3u);
}

TEST(BufferPool, FootprintReportsBackingBytes) {
  auto pool = make_pool(8, 1024);
  EXPECT_EQ(pool.footprint(), 8u * 1024u);
}

TEST(BufferPool, FreshSlotsReadZero) {
  // Every slot is zero before its first write, so a fresh buffer never
  // exposes stale heap contents, even where a dirtied pool was just freed.
  {
    auto dirty = make_pool(4, 256);
    for (int i = 0; i < 4; ++i) {
      auto span = dirty.access(*dirty.allocate(kFnA), kFnA);
      std::memset(span.data(), 0xff, span.size());
    }
  }
  auto pool = make_pool(4, 256);
  for (int i = 0; i < 4; ++i) {
    auto d = pool.allocate(kFnA);
    ASSERT_TRUE(d.has_value());
    for (std::byte b : pool.access(*d, kFnA)) ASSERT_EQ(b, std::byte{0});
  }
}

TEST(BufferPool, TouchedBytesFollowHighWater) {
  auto pool = make_pool(8, 1024);
  EXPECT_EQ(pool.touched_bytes(), 0u);
  auto a = pool.allocate(kFnA);
  auto b = pool.allocate(kFnA);
  auto c = pool.allocate(kFnA);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(pool.touched_bytes(), 3u * 1024u);
  // A release and reallocation recycles the same slot: nothing new touched.
  pool.release(*b, kFnA);
  auto again = pool.allocate(kFnA);
  EXPECT_EQ(again->index, b->index);
  EXPECT_EQ(pool.touched_bytes(), 3u * 1024u);
  EXPECT_EQ(pool.footprint(), 8u * 1024u);
}

TEST(BufferPool, BackingCommittedOnFirstWrite) {
  // 2048 x 16 KiB: the last slot lies 32 MiB past slot 0, further than one
  // transparent huge page, so writing slot 0 cannot commit it.
  constexpr std::size_t kCount = 2048;
  auto pool = make_pool(kCount, 16_KiB);
  std::vector<BufferDescriptor> all;
  for (std::size_t i = 0; i < kCount; ++i) all.push_back(*pool.allocate(kFnA));
  auto first = pool.access(all.front(), kFnA);
  std::memset(first.data(), 0xab, first.size());

  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  auto last = pool.access(all.back(), kFnA);
  const auto begin = reinterpret_cast<std::uintptr_t>(last.data());
  const std::uintptr_t lo = (begin + page - 1) / page * page;
  const std::uintptr_t hi = (begin + last.size()) / page * page;
  ASSERT_LT(lo, hi);
  std::vector<unsigned char> resident((hi - lo) / page);
  ASSERT_EQ(0, mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()));
  for (unsigned char r : resident) EXPECT_EQ(r & 1u, 0u);
}

TEST(BufferPool, OversizedPoolRejectedBeforeAllocating) {
  // Descriptors carry 32-bit indices, so 2^32 slots would alias.
  EXPECT_THROW(
      (void)BufferPool(kPool, kTenant, std::size_t{UINT32_MAX} + 1, 1),
      CheckFailure);
  // count x size overflows: rejected before anything is reserved.
  EXPECT_THROW(
      (void)BufferPool(kPool, kTenant, std::size_t{1} << 20, Bytes{1} << 50),
      CheckFailure);
}

TEST(BufferPool, AllocationRequiresOwner) {
  auto pool = make_pool();
  EXPECT_THROW(pool.allocate(Actor{}), CheckFailure);
}

}  // namespace
}  // namespace pd::mem
