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
  const mem::BufferDescriptor b1{PoolId{1}, 0, 0, t};
  const mem::BufferDescriptor b2{PoolId{1}, 1, 0, t};
  rbr.on_posted(t, b1);
  rbr.on_posted(t, b2);
  EXPECT_EQ(rbr.outstanding(t), 2u);
  rbr.on_consumed(t, b1);
  EXPECT_EQ(rbr.outstanding(t), 1u);
  EXPECT_EQ(rbr.take_consumed(t), 1u);
  EXPECT_EQ(rbr.take_consumed(t), 0u);  // counter reset
}

TEST(Rbr, MismatchesRejected) {
  ReceiveBufferRegistry rbr;
  const TenantId t{1};
  const mem::BufferDescriptor b{PoolId{1}, 0, 0, t};
  EXPECT_THROW(rbr.on_consumed(t, b), CheckFailure);  // never posted
  rbr.on_posted(t, b);
  EXPECT_THROW(rbr.on_posted(t, b), CheckFailure);  // double post
  EXPECT_THROW(rbr.on_consumed(TenantId{2}, b), CheckFailure);  // wrong tenant
}

}  // namespace
}  // namespace pd::core
