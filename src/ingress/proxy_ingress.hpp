// Baseline cluster ingresses (§4.1.3, Fig. 4 (1)): an NGINX-style HTTP
// reverse proxy that keeps HTTP/TCP all the way to the worker node, where
// a gateway agent terminates TCP *again* and injects the request into the
// local data plane — the "deferred transport conversion" whose duplicated
// protocol processing Palladium eliminates.
//
//  - K-Ingress: interrupt-driven kernel TCP at the proxy.
//  - F-Ingress: DPDK F-stack at the proxy (pinned worker cores), with
//    optional horizontal scaling (the adapted autoscaler of §4.1.3).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "ingress/ingress.hpp"
#include "proto/http.hpp"
#include "proto/tcp.hpp"
#include "runtime/cluster.hpp"
#include "sim/stats.hpp"

namespace pd::ingress {

/// Gateway agent on a worker node: terminates the proxy's TCP leg,
/// injects chain requests, and relays responses back. One per worker node
/// that hosts chain entry functions; `tenant` is the tenant of an exposed
/// chain entered there (entry registration only needs a valid one).
class WorkerGateway {
 public:
  WorkerGateway(runtime::Cluster& cluster, NodeId node, TenantId tenant,
                proto::StackKind stack);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] proto::StackKind stack() const { return stack_; }
  [[nodiscard]] sim::Core& core() { return core_; }
  [[nodiscard]] FunctionId entry() const { return entry_; }

  /// Wire the proxy->gateway TCP leg: the proxy passes its send function;
  /// the gateway returns the handler for bytes arriving from the proxy.
  void bind_uplink(std::function<void(std::string)> to_proxy);
  void on_proxy_bytes(std::string_view bytes);

 private:
  void on_chain_response(const mem::BufferDescriptor& d);

  runtime::Cluster& cluster_;
  NodeId node_;
  proto::StackKind stack_;
  sim::Core& core_;
  FunctionId entry_;
  std::function<void(std::string)> to_proxy_;
  std::unordered_map<std::uint64_t, std::string> req_tags_;  // id -> X-Req
  std::uint64_t next_request_ = 1;
};

class ProxyIngress : public IngressFrontend {
 public:
  struct Config {
    NodeId node{201};
    proto::StackKind stack = proto::StackKind::kKernel;
    /// Kernel mode: cores available to softirq/NGINX (RSS spread).
    /// F-stack mode: dedicated pinned worker cores.
    int cores = 1;
    /// F-stack only; same hysteresis as the PALLADIUM gateway
    /// (cost::kIngressScaleUpUtil).
    bool autoscale = false;
  };

  ProxyIngress(runtime::Cluster& cluster, Config config);

  /// Create gateway agents on worker nodes hosting exposed chains and
  /// establish the proxy->gateway TCP legs. Call before finish_setup on
  /// the cluster.
  void finish_setup();

  int attach_client(NodeId client_node, sim::Core& client_core,
                    std::function<void(std::string_view)> to_client) override;
  void client_send(int client, std::string bytes) override;
  void expose_chain(std::string target, std::uint32_t chain_id) override;

  [[nodiscard]] std::uint64_t responses() const { return responses_; }
  [[nodiscard]] int active_workers() const { return active_workers_; }
  [[nodiscard]] sim::TimeSeries& response_series() { return response_series_; }
  [[nodiscard]] sim::TimeSeries& worker_series() { return worker_series_; }
  [[nodiscard]] sim::TimeSeries& useful_cpu_series() { return useful_cpu_series_; }
  [[nodiscard]] WorkerGateway& gateway(NodeId node);

 private:
  struct ClientConn {
    std::unique_ptr<proto::TcpConnection> tcp;
    std::function<void(std::string_view)> to_client;
    int worker = 0;
  };
  struct Uplink {
    std::unique_ptr<proto::TcpConnection> tcp;
    WorkerGateway* gateway = nullptr;
  };

  void on_client_bytes(int client, std::string_view bytes);
  void on_gateway_bytes(NodeId gateway, std::string_view bytes);
  void autoscale_tick();
  void sample_tick();
  sim::Core& rx_core(int worker);
  /// Core that processes a unit of proxy work for `worker`: kernel stack
  /// lets the OS balance onto the least-loaded core; user-level stacks pin
  /// to the worker's own core.
  sim::Core& pick_core(int worker);

  runtime::Cluster& cluster_;
  Config config_;
  sim::Scheduler& sched_;
  sim::CoreSet cores_;
  int active_workers_;
  int next_worker_rr_ = 0;
  std::vector<sim::Duration> last_busy_;
  std::vector<sim::Duration> autoscale_busy_;

  std::unordered_map<std::string, std::uint32_t> targets_;
  std::vector<std::unique_ptr<ClientConn>> clients_;
  std::vector<std::unique_ptr<WorkerGateway>> gateways_;
  std::unordered_map<NodeId, Uplink> uplinks_;
  /// X-Req tag -> client connection (for response demux).
  std::unordered_map<std::uint64_t, int> tag_client_;
  std::uint64_t next_tag_ = 1;
  std::uint64_t responses_ = 0;
  bool setup_done_ = false;

  sim::TimeSeries response_series_;
  sim::TimeSeries worker_series_;
  sim::TimeSeries useful_cpu_series_;
};

}  // namespace pd::ingress
