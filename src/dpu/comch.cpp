#include "dpu/comch.hpp"

#include "common/check.hpp"

namespace pd::dpu {

const char* to_string(ComchVariant v) {
  switch (v) {
    case ComchVariant::kEvent: return "Comch-E";
    case ComchVariant::kPolling: return "Comch-P";
  }
  return "?";
}

ComchServer::ComchServer(sim::Scheduler& sched, sim::Core& dpu_core,
                         ComchVariant variant, ServerHandler server_handler)
    : sched_(sched),
      dpu_core_(dpu_core),
      variant_(variant),
      server_handler_(std::move(server_handler)) {
  PD_CHECK(server_handler_ != nullptr, "Comch server needs a handler");
}

sim::Duration ComchServer::per_msg() const {
  return variant_ == ComchVariant::kEvent ? cost::kComchEPerMsgNs
                                          : cost::kComchPPerMsgNs;
}

sim::Duration ComchServer::latency() const {
  return variant_ == ComchVariant::kEvent ? cost::kComchELatencyNs
                                          : cost::kComchPLatencyNs;
}

sim::Duration ComchServer::server_dequeue_cost() const {
  if (variant_ == ComchVariant::kEvent) return per_msg();
  // Comch-P's progress engine epoll-scans all endpoints per dequeue.
  return per_msg() + static_cast<sim::Duration>(clients_.size()) *
                         cost::kComchPPollPerEndpointNs;
}

void ComchServer::connect(FunctionId client, sim::Core& host_core,
                          ipc::DescriptorHandler host_handler) {
  PD_CHECK(host_handler != nullptr, "client needs a handler");
  PD_CHECK(!clients_.contains(client),
           "client " << client << " already connected");
  if (variant_ == ComchVariant::kPolling) {
    host_core.set_busy_poll(true);  // dedicated ring-polling core
  }
  clients_.insert(client, std::make_unique<Client>(
                              Client{&host_core, std::move(host_handler)}));
}

void ComchServer::send_to_server(FunctionId client,
                                 const mem::BufferDescriptor& d,
                                 bool charge_host) {
  const auto* c = clients_.find(client);
  PD_CHECK(c != nullptr, "send from unconnected client " << client);
  ++to_server_;
  // Host-side enqueue cost, then channel latency, then DNE-side dequeue.
  auto in_flight = [this, client, d] {
    sched_.schedule_after(latency(), [this, client, d] {
      dpu_core_.submit(server_dequeue_cost(),
                       [this, client, d] { server_handler_(client, d); });
    });
  };
  if (charge_host) {
    (*c)->host_core->submit(per_msg(), std::move(in_flight));
  } else {
    in_flight();
  }
}

void ComchServer::send_to_client(FunctionId client,
                                 const mem::BufferDescriptor& d) {
  auto* slot = clients_.find(client);
  PD_CHECK(slot != nullptr, "send to unconnected client " << client);
  ++to_client_;
  Client& c = **slot;
  dpu_core_.submit(per_msg(), [this, &c, d] {
    sched_.schedule_after(latency(), [this, &c, d] {
      c.host_core->submit(per_msg(), [&c, d] { c.handler(d); });
    });
  });
}

}  // namespace pd::dpu
