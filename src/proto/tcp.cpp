#include "proto/tcp.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"

namespace pd::proto {

StackCosts costs_for(StackKind kind) {
  switch (kind) {
    case StackKind::kKernel:
      return {cost::kKernelTcpPerReqNs, cost::kKernelTcpLatencyNs,
              cost::kKernelCopyPerByteNs, cost::kInterruptNs};
    case StackKind::kKernelPersistent:
      return {cost::kKernelRelayPerReqNs, cost::kKernelTcpLatencyNs,
              cost::kKernelCopyPerByteNs, cost::kKernelRelayInterruptNs};
    case StackKind::kFstack:
      return {cost::kFstackPerReqNs, cost::kFstackLatencyNs,
              cost::kKernelCopyPerByteNs / 4.0, 0};
    case StackKind::kFstackBatched:
      return {cost::kFstackBatchedPerReqNs, cost::kFstackLatencyNs,
              cost::kKernelCopyPerByteNs / 4.0, 0};
  }
  PD_UNREACHABLE("bad stack kind");
}

TcpConnection::TcpConnection(sim::Scheduler& sched, fabric::Switch& eth,
                             TcpEndpoint a, TcpEndpoint b)
    : sched_(sched), eth_(eth), a_(std::move(a)), b_(std::move(b)) {
  for (const TcpEndpoint* ep : {&a_, &b_}) {
    PD_CHECK((ep->core != nullptr) != (ep->cores != nullptr),
             "endpoint needs exactly one of core/cores");
  }
  PD_CHECK(a_.node != b_.node, "TCP model spans two nodes");
}

sim::Core& TcpConnection::pick_core(TcpEndpoint& ep) {
  return ep.core != nullptr ? *ep.core : ep.cores->least_loaded();
}

void TcpConnection::connect(std::function<void()> established) {
  PD_CHECK(!connecting_, "connect called twice");
  connecting_ = true;
  const StackCosts ca = costs_for(a_.stack);
  const StackCosts cb = costs_for(b_.stack);
  // SYN ->, SYN/ACK <-, ACK -> : 1.5 RTTs plus per-side stack work.
  pick_core(a_).submit(ca.per_req, [this, cb,
                                    established = std::move(established)]() mutable {
    eth_.send(a_.node, b_.node, 64, [this, cb,
                                     established = std::move(established)]() mutable {
      pick_core(b_).submit(cb.per_req, [this, established =
                                                  std::move(established)]() mutable {
        eth_.send(b_.node, a_.node, 64, [this, established =
                                                   std::move(established)]() mutable {
          eth_.send(a_.node, b_.node, 64, [this, established =
                                                     std::move(established)] {
            established_ = true;
            for (QueuedSend& q : queued_) {
              send(*q.from, *q.to, std::move(q.bytes));
            }
            queued_.clear();
            if (established) established();
          });
        });
      });
    });
  });
}

void TcpConnection::send(TcpEndpoint& from, TcpEndpoint& to,
                         std::string bytes) {
  PD_CHECK(connecting_, "send before connect");
  if (!established_) {
    queued_.push_back(QueuedSend{&from, &to, std::move(bytes)});
    return;
  }
  const StackCosts tx = costs_for(from.stack);
  const StackCosts rx = costs_for(to.stack);
  const auto len = static_cast<Bytes>(bytes.size());
  ++messages_;
  bytes_ += len;

  const auto tx_work =
      tx.per_req + static_cast<sim::Duration>(static_cast<double>(len) * tx.per_byte);
  const auto rx_work =
      rx.per_req + static_cast<sim::Duration>(static_cast<double>(len) * rx.per_byte);

  auto payload = std::make_shared<std::string>(std::move(bytes));
  pick_core(from).submit(tx_work, [this, &from, &to, len, rx, rx_work,
                                   tx_latency = tx.latency, payload] {
    sched_.schedule_after(tx_latency, [this, &from, &to, len, rx, rx_work,
                                       payload] {
      eth_.send(from.node, to.node, len, [this, &to, rx, rx_work, payload] {
        sched_.schedule_after(rx.latency, [this, &to, rx, rx_work, payload] {
          sim::Core& rx_core = pick_core(to);
          if (rx.interrupt > 0) {
            // Interrupt-driven: softirq wakeup precedes protocol work, and
            // under a receive backlog the per-packet cost inflates
            // (interrupt storms / receive livelock, Mogul & Ramakrishnan
            // [68]) — the regime that collapses K-Ingress in Figs. 13/14.
            const sim::Duration base = rx.interrupt + rx_work;
            const sim::Duration penalty =
                std::min<sim::Duration>(base * rx_core.backlog() / 30'000,
                                        2 * base);
            rx_core.submit(base + penalty, [&to, payload] {
              if (to.on_message) to.on_message(*payload);
            });
          } else {
            rx_core.submit(rx_work, [&to, payload] {
              if (to.on_message) to.on_message(*payload);
            });
          }
        });
      });
    });
  });
}

}  // namespace pd::proto
