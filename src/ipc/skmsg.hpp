// eBPF SK_MSG / sockmap intra-node IPC (§3.5.3, borrowed from SPRIGHT).
//
// Each registered function owns a socket; a BPF_MAP_TYPE_SOCKMAP maps
// function IDs to sockets. send() runs the SK_MSG program on the sender's
// core (sockmap lookup + redirect, bypassing the protocol stack); delivery
// costs an interrupt-style wakeup on the receiver's core — cheap per
// message, but the wakeups are exactly what throttles a CPU-resident
// network engine at high concurrency (§4.3).
#pragma once

#include <memory>

#include "common/id_table.hpp"
#include "ipc/channel.hpp"
#include "proto/cost_model.hpp"

namespace pd::ipc {

class SockMap {
 public:
  explicit SockMap(sim::Scheduler& sched) : sched_(sched) {}

  /// Register `fn`'s socket: descriptors delivered to it run `handler`
  /// after the wakeup cost on `rx_core`.
  void register_socket(FunctionId fn, sim::Core& rx_core,
                       DescriptorHandler handler);

  /// SK_MSG redirect: charge the send-side program to `tx_core` (may be
  /// nullptr when the sender's CPU time is accounted elsewhere) and deliver.
  void send(FunctionId dest, const mem::BufferDescriptor& d,
            sim::Core* tx_core);

  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  struct Socket {
    sim::Core* rx_core;
    DescriptorHandler handler;
  };

  sim::Scheduler& sched_;
  /// Held by pointer: deliveries in flight keep a Socket&.
  IdTable<FunctionId, std::unique_ptr<Socket>> sockets_;
  std::uint64_t messages_ = 0;
};

}  // namespace pd::ipc
