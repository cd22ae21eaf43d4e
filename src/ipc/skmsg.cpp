#include "ipc/skmsg.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pd::ipc {

void SockMap::register_socket(FunctionId fn, sim::Core& rx_core,
                              DescriptorHandler handler) {
  PD_CHECK(handler != nullptr, "socket needs a handler");
  PD_CHECK(!sockets_.contains(fn), "function " << fn << " already in sockmap");
  sockets_.insert(fn, std::make_unique<Socket>(
                          Socket{&rx_core, std::move(handler)}));
}

void SockMap::send(FunctionId dest, const mem::BufferDescriptor& d,
                   sim::Core* tx_core) {
  auto* slot = sockets_.find(dest);
  PD_CHECK(slot != nullptr, "sockmap miss for function " << dest);
  Socket& sock = **slot;
  ++messages_;

  auto deliver = [this, &sock, d] {
    sched_.schedule_after(cost::kSkMsgLatencyNs, [&sock, d] {
      // Interrupt-style wakeup on the receiver core, then the handler.
      // Under a backlog the per-event cost inflates (interrupt storms,
      // cache pollution — the receive-livelock regime of Mogul &
      // Ramakrishnan [68] that throttles a CPU-resident network engine
      // shared by many functions, §4.3).
      const sim::Duration backlog = sock.rx_core->backlog();
      const sim::Duration penalty = std::min<sim::Duration>(
          cost::kSkMsgWakeupNs * backlog / 50'000,
          4 * cost::kSkMsgWakeupNs);
      sock.rx_core->submit(cost::kSkMsgWakeupNs + penalty,
                           [&sock, d] { sock.handler(d); });
    });
  };

  if (tx_core != nullptr) {
    tx_core->submit(cost::kSkMsgSendNs, deliver);
  } else {
    deliver();
  }
}

}  // namespace pd::ipc
