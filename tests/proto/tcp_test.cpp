#include "proto/tcp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"

namespace pd::proto {
namespace {

constexpr NodeId kClient{1};
constexpr NodeId kServer{2};

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : eth(sched) {
    eth.attach(kClient);
    eth.attach(kServer);
  }
  sim::Scheduler sched;
  fabric::Switch eth;
};

TEST_F(TcpTest, HandshakeThenEcho) {
  sim::Core client_core(sched, "client"), server_core(sched, "server");
  std::string server_got, client_got;

  TcpEndpoint a{kClient, StackKind::kKernel, &client_core, nullptr,
                [&](std::string_view m) { client_got = m; }};
  TcpEndpoint b{kServer, StackKind::kKernel, &server_core, nullptr,
                [&](std::string_view m) { server_got = m; }};
  TcpConnection conn(sched, eth, a, b);

  EXPECT_THROW(conn.send_a_to_b("early"), CheckFailure);
  bool established = false;
  conn.connect([&] { established = true; });
  sched.run();
  ASSERT_TRUE(established);

  conn.send_a_to_b("request-bytes");
  sched.run();
  EXPECT_EQ(server_got, "request-bytes");
  conn.send_b_to_a("response-bytes");
  sched.run();
  EXPECT_EQ(client_got, "response-bytes");
  EXPECT_EQ(conn.messages(), 2u);
  EXPECT_EQ(conn.bytes_transferred(), 13u + 14u);
}

TEST_F(TcpTest, SendsDuringHandshakeArriveInOrder) {
  sim::Core client_core(sched, "client"), server_core(sched, "server");
  std::vector<std::string> server_got;
  TcpEndpoint a{kClient, StackKind::kKernel, &client_core, nullptr, nullptr};
  TcpEndpoint b{kServer, StackKind::kKernel, &server_core, nullptr,
                [&](std::string_view m) { server_got.emplace_back(m); }};
  TcpConnection conn(sched, eth, a, b);

  conn.connect(nullptr);
  conn.send_a_to_b("first");
  conn.send_a_to_b("second");
  EXPECT_FALSE(conn.established());
  sched.run();
  ASSERT_TRUE(conn.established());
  EXPECT_EQ(server_got, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(conn.messages(), 2u);
}

TEST_F(TcpTest, KernelStackCostsMoreThanFstack) {
  auto measure = [&](StackKind kind) {
    sim::Scheduler s2;
    fabric::Switch eth2(s2);
    eth2.attach(kClient);
    eth2.attach(kServer);
    sim::Core c1(s2, "a"), c2(s2, "b");
    sim::TimePoint done = 0;
    TcpEndpoint a{kClient, kind, &c1, nullptr, nullptr};
    TcpEndpoint b{kServer, kind, &c2, nullptr,
                  [&](std::string_view) { done = s2.now(); }};
    TcpConnection conn(s2, eth2, a, b);
    conn.connect(nullptr);
    s2.run();
    const auto start = s2.now();
    conn.send_a_to_b(std::string(512, 'x'));
    s2.run();
    return done - start;
  };
  const auto kernel = measure(StackKind::kKernel);
  const auto fstack = measure(StackKind::kFstack);
  EXPECT_GT(kernel, 3 * fstack)
      << "kernel per-message path should be several times slower";
}

TEST_F(TcpTest, ReceiverCpuChargedPerMessage) {
  sim::Core client_core(sched, "client"), server_core(sched, "server");
  int received = 0;
  TcpEndpoint a{kClient, StackKind::kKernel, &client_core, nullptr, nullptr};
  TcpEndpoint b{kServer, StackKind::kKernel, &server_core, nullptr,
                [&](std::string_view) { ++received; }};
  TcpConnection conn(sched, eth, a, b);
  conn.connect(nullptr);
  sched.run();
  const auto before = server_core.busy_ns();
  for (int i = 0; i < 10; ++i) conn.send_a_to_b("x");
  sched.run();
  EXPECT_EQ(received, 10);
  // 10 interrupts + protocol work serialized on the server core.
  EXPECT_GE(server_core.busy_ns() - before,
            10 * (cost::kInterruptNs + cost::kKernelTcpPerReqNs));
}

TEST_F(TcpTest, RssSpreadsAcrossCoreSet) {
  sim::Core client_core(sched, "client");
  sim::CoreSet server_cores(sched, "srv", 4);
  int received = 0;
  TcpEndpoint a{kClient, StackKind::kKernel, &client_core, nullptr, nullptr};
  TcpEndpoint b{kServer, StackKind::kKernel, nullptr, &server_cores,
                [&](std::string_view) { ++received; }};
  TcpConnection conn(sched, eth, a, b);
  conn.connect(nullptr);
  sched.run();
  for (int i = 0; i < 16; ++i) conn.send_a_to_b(std::string(64, 'y'));
  sched.run();
  EXPECT_EQ(received, 16);
  // Least-loaded selection must have used more than one core.
  int used = 0;
  for (std::size_t i = 0; i < server_cores.size(); ++i) {
    if (server_cores.core(i).busy_ns() > 0) ++used;
  }
  EXPECT_GT(used, 1);
}

TEST_F(TcpTest, EndpointValidation) {
  sim::Core core(sched, "c");
  sim::CoreSet set(sched, "s", 2);
  TcpEndpoint both{kClient, StackKind::kKernel, &core, &set, nullptr};
  TcpEndpoint ok{kServer, StackKind::kKernel, &core, nullptr, nullptr};
  EXPECT_THROW(TcpConnection(sched, eth, both, ok), CheckFailure);
  TcpEndpoint neither{kClient, StackKind::kKernel, nullptr, nullptr, nullptr};
  EXPECT_THROW(TcpConnection(sched, eth, neither, ok), CheckFailure);
  TcpEndpoint same_node{kServer, StackKind::kKernel, &core, nullptr, nullptr};
  EXPECT_THROW(TcpConnection(sched, eth, ok, same_node), CheckFailure);
}

}  // namespace
}  // namespace pd::proto
