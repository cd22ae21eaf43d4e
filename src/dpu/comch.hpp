// DOCA Comch analog: the cross-processor descriptor channel between the
// DNE (server, on the DPU) and host functions (clients) — §3.5.4 / Fig. 9.
//
// Two variants, matching the paper's measurement:
//  - Comch-E: event-driven send/recv over blocking epoll. Higher latency,
//    no dedicated cores, scales with function density. Palladium's choice.
//  - Comch-P: producer/consumer rings with busy polling. Lowest latency,
//    but (a) burns one host core per client and (b) its progress engine
//    pays an epoll-derived per-endpoint cost on every dequeue, which
//    overloads the single DNE core beyond ~6 clients.
#pragma once

#include <functional>
#include <memory>

#include "common/id_table.hpp"
#include "ipc/channel.hpp"
#include "proto/cost_model.hpp"

namespace pd::dpu {

enum class ComchVariant : std::uint8_t { kEvent, kPolling };

const char* to_string(ComchVariant v);

class ComchServer {
 public:
  /// `server_handler` runs on the DPU core whenever a client's descriptor
  /// reaches the DNE.
  using ServerHandler =
      std::function<void(FunctionId, const mem::BufferDescriptor&)>;

  ComchServer(sim::Scheduler& sched, sim::Core& dpu_core, ComchVariant variant,
              ServerHandler server_handler);

  /// Connect a host-side client. `host_handler` runs on `host_core` when
  /// the DNE sends a descriptor to this client. In kPolling mode the host
  /// core is dedicated to the ring (marked busy-poll).
  void connect(FunctionId client, sim::Core& host_core,
               ipc::DescriptorHandler host_handler);

  /// Host function -> DNE. `charge_host=false` when the caller already
  /// accounted the enqueue cost on its own core (run-to-completion send).
  void send_to_server(FunctionId client, const mem::BufferDescriptor& d,
                      bool charge_host = true);
  /// DNE -> host function.
  void send_to_client(FunctionId client, const mem::BufferDescriptor& d);

  [[nodiscard]] ComchVariant variant() const { return variant_; }
  /// Host-side per-descriptor enqueue cost (for run-to-completion callers).
  [[nodiscard]] sim::Duration host_enqueue_cost() const { return per_msg(); }
  [[nodiscard]] std::uint64_t to_server_msgs() const { return to_server_; }
  [[nodiscard]] std::uint64_t to_client_msgs() const { return to_client_; }

 private:
  struct Client {
    sim::Core* host_core;
    ipc::DescriptorHandler handler;
  };

  [[nodiscard]] sim::Duration per_msg() const;
  [[nodiscard]] sim::Duration latency() const;
  /// Server-side dequeue cost: the Comch-P progress engine scans every
  /// registered endpoint through its internal epoll.
  [[nodiscard]] sim::Duration server_dequeue_cost() const;

  sim::Scheduler& sched_;
  sim::Core& dpu_core_;
  ComchVariant variant_;
  ServerHandler server_handler_;
  /// Held by pointer: deliveries in flight keep a Client&.
  IdTable<FunctionId, std::unique_ptr<Client>> clients_;
  std::uint64_t to_server_ = 0;
  std::uint64_t to_client_ = 0;
};

}  // namespace pd::dpu
