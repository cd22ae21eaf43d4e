// Request-granularity TCP stack models: the interrupt-driven Linux kernel
// stack and the DPDK-based F-stack (§3.6, §4.1.3 baselines).
//
// A TcpConnection joins two endpoints across the Ethernet switch. Each
// message send charges protocol-processing work to the sender's core,
// serializes on the wire, then charges receive-side work (plus an
// interrupt for the kernel stack) before the peer's handler runs. This is
// deliberately request-granular: the experiments care about per-request
// CPU cost and queueing, not segment dynamics.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/fabric.hpp"
#include "proto/cost_model.hpp"
#include "sim/core.hpp"

namespace pd::proto {

enum class StackKind : std::uint8_t {
  kKernel,          ///< interrupt-driven kernel TCP/IP
  kKernelPersistent,///< long-lived engine-to-engine relay socket (SPRIGHT)
  kFstack,          ///< DPDK userspace TCP, busy-polled
  kFstackBatched,   ///< F-stack with event-loop batching (PALLADIUM ingress)
};

struct StackCosts {
  sim::Duration per_req;      ///< protocol processing per message, per side
  sim::Duration latency;      ///< stack traversal latency floor, per side
  double per_byte;            ///< copy cost (user <-> stack buffers)
  sim::Duration interrupt;    ///< receive interrupt (0 for polled stacks)
};

StackCosts costs_for(StackKind kind);

/// One side of a TCP connection. `core` (single) or `cores` (RSS across a
/// set) receives the CPU charges; exactly one must be set. `on_message`
/// runs when a complete application message arrives.
struct TcpEndpoint {
  NodeId node{};
  StackKind stack = StackKind::kKernel;
  sim::Core* core = nullptr;
  sim::CoreSet* cores = nullptr;
  std::function<void(std::string_view)> on_message;
};

class TcpConnection {
 public:
  TcpConnection(sim::Scheduler& sched, fabric::Switch& eth, TcpEndpoint a,
                TcpEndpoint b);

  /// Three-way handshake; `established` fires when the connection is ready,
  /// after the sends queued during the handshake have been issued.
  void connect(std::function<void()> established);
  [[nodiscard]] bool established() const { return established_; }

  /// Send an application message from endpoint A to B (or B to A). The
  /// peer's on_message handler receives the bytes after stack + wire costs.
  /// A send made after connect() but before the handshake completes is
  /// queued and issued in order at establishment; one made before
  /// connect() is a check failure.
  void send_a_to_b(std::string bytes) { send(a_, b_, std::move(bytes)); }
  void send_b_to_a(std::string bytes) { send(b_, a_, std::move(bytes)); }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] Bytes bytes_transferred() const { return bytes_; }

  TcpEndpoint& endpoint_b() { return b_; }

 private:
  struct QueuedSend {
    TcpEndpoint* from;
    TcpEndpoint* to;
    std::string bytes;
  };

  void send(TcpEndpoint& from, TcpEndpoint& to, std::string bytes);
  static sim::Core& pick_core(TcpEndpoint& ep);

  sim::Scheduler& sched_;
  fabric::Switch& eth_;
  TcpEndpoint a_;
  TcpEndpoint b_;
  bool connecting_ = false;
  bool established_ = false;
  std::vector<QueuedSend> queued_;  ///< sends made during the handshake
  std::uint64_t messages_ = 0;
  Bytes bytes_ = 0;
};

}  // namespace pd::proto
