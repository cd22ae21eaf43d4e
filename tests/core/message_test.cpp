#include "core/message.hpp"

#include <gtest/gtest.h>

#include <array>

#include "common/check.hpp"
#include "core/rbr.hpp"
#include "core/routing.hpp"

namespace pd::core {
namespace {

TEST(MessageHeader, RoundTripThroughBuffer) {
  std::array<std::byte, 128> buf{};
  MessageHeader h;
  h.request_id = 0xDEADBEEF12345678ULL;
  h.src_fn = 3;
  h.dst_fn = 7;
  h.chain_id = 2;
  h.hop_index = 5;
  h.flags = MessageHeader::kFlagResponse;
  h.client_id = 99;
  h.payload_len = 64;
  write_header(buf, h);
  const MessageHeader r = read_header(buf);
  EXPECT_EQ(r.request_id, h.request_id);
  EXPECT_EQ(r.src(), FunctionId{3});
  EXPECT_EQ(r.dst(), FunctionId{7});
  EXPECT_EQ(r.hop_index, 5);
  EXPECT_TRUE(r.is_response());
  EXPECT_EQ(r.payload_len, 64u);
}

TEST(MessageHeader, TooSmallBufferRejected) {
  std::array<std::byte, 8> tiny{};
  MessageHeader h;
  EXPECT_THROW(write_header(tiny, h), CheckFailure);
  EXPECT_THROW(read_header(tiny), CheckFailure);
}

TEST(MessageHeader, PayloadView) {
  std::array<std::byte, 128> buf{};
  MessageHeader h;
  h.payload_len = 10;
  write_header(buf, h);
  auto p = payload_of(buf, h);
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(message_bytes(10), sizeof(MessageHeader) + 10);
}

TEST(InterNodeRouting, AddLookup) {
  InterNodeRoutingTable t;
  t.add_route(FunctionId{1}, NodeId{2});
  EXPECT_TRUE(t.has_route(FunctionId{1}));
  EXPECT_EQ(t.lookup(FunctionId{1}), NodeId{2});
  EXPECT_THROW(t.add_route(FunctionId{1}, NodeId{3}), CheckFailure);
  EXPECT_FALSE(t.has_route(FunctionId{2}));
  EXPECT_THROW((void)t.lookup(FunctionId{2}), CheckFailure);
}

TEST(IntraNodeRouting, LocalityQueries) {
  IntraNodeRoutingTable t;
  t.add_local(FunctionId{5});
  EXPECT_TRUE(t.is_local(FunctionId{5}));
  EXPECT_FALSE(t.is_local(FunctionId{6}));
  EXPECT_THROW(t.add_local(FunctionId{5}), CheckFailure);
}

TEST(Rbr, PostConsumeReplenishCycle) {
  ReceiveBufferRegistry rbr;
  const TenantId t{1};
  rbr.add_tenant(t, PoolId{1}, 4);
  const mem::BufferDescriptor b1{PoolId{1}, 0, 0, t};
  const mem::BufferDescriptor b2{PoolId{1}, 1, 0, t};
  rbr.on_posted(t, b1);
  rbr.on_posted(t, b2);
  EXPECT_EQ(rbr.outstanding(t), 2u);
  rbr.on_consumed(t, b1);
  EXPECT_EQ(rbr.outstanding(t), 1u);
  EXPECT_EQ(rbr.take_consumed(t), 1u);
  EXPECT_EQ(rbr.take_consumed(t), 0u);  // counter reset
  rbr.on_posted(t, b1);  // a consumed slot can be posted again
  EXPECT_EQ(rbr.outstanding(t), 2u);
}

TEST(Rbr, MismatchesRejected) {
  ReceiveBufferRegistry rbr;
  const TenantId t{1};
  const TenantId other{2};
  rbr.add_tenant(t, PoolId{1}, 4);
  rbr.add_tenant(other, PoolId{2}, 4);
  EXPECT_THROW(rbr.add_tenant(t, PoolId{3}, 4), CheckFailure);
  const mem::BufferDescriptor b{PoolId{1}, 0, 0, t};
  EXPECT_THROW(rbr.on_consumed(t, b), CheckFailure);  // never posted
  rbr.on_posted(t, b);
  EXPECT_THROW(rbr.on_posted(t, b), CheckFailure);  // double post
  EXPECT_THROW(rbr.on_consumed(other, b), CheckFailure);  // wrong tenant
  EXPECT_THROW(rbr.on_consumed(TenantId{7}, b), CheckFailure);  // unknown
  // A buffer outside the tenant's pool, by pool or by slot index.
  EXPECT_THROW(rbr.on_consumed(t, mem::BufferDescriptor{PoolId{2}, 0, 0, t}),
               CheckFailure);
  EXPECT_THROW(rbr.on_posted(t, mem::BufferDescriptor{PoolId{1}, 4, 0, t}),
               CheckFailure);
  // The failed calls left the books untouched.
  EXPECT_EQ(rbr.outstanding(t), 1u);
  EXPECT_EQ(rbr.outstanding(other), 0u);
  rbr.on_consumed(t, b);
  EXPECT_EQ(rbr.take_consumed(t), 1u);
}

TEST(Rbr, FaultDrainReconciles) {
  ReceiveBufferRegistry rbr;
  const TenantId t{1};
  rbr.add_tenant(t, PoolId{1}, 4);
  const mem::BufferDescriptor b{PoolId{1}, 3, 0, t};
  EXPECT_THROW(rbr.on_dropped(t, b), CheckFailure);  // never posted
  rbr.on_posted(t, b);
  EXPECT_THROW(rbr.on_dropped(TenantId{2}, b), CheckFailure);  // mismatch
  rbr.on_dropped(t, b);
  // The drain is a deficit for the replenisher, not a consumption.
  EXPECT_EQ(rbr.outstanding(t), 0u);
  EXPECT_EQ(rbr.take_consumed(t), 0u);
  EXPECT_THROW(rbr.on_consumed(t, b), CheckFailure);  // no longer posted
  rbr.on_posted(t, b);  // re-posting the drained slot is legal
  EXPECT_EQ(rbr.outstanding(t), 1u);
}

}  // namespace
}  // namespace pd::core
