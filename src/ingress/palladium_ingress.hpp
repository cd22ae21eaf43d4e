// Palladium's cluster-wide ingress gateway (§3.6): early HTTP/TCP-to-RDMA
// transport conversion at the cloud edge.
//
// Master/worker model: worker processes run a run-to-completion busy loop
// on dedicated cores, each handling F-stack TCP termination, NGINX-grade
// HTTP processing (a real parser), and RDMA transmission of the payload
// into the serverless fabric. The master horizontally scales workers with
// a 60%/30% hysteresis on *useful* CPU time and RSS-rebalances client
// connections; each scaling event restarts the worker pool, causing the
// brief service blip visible in Fig. 14 (2).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "control/admission.hpp"
#include "ingress/ingress.hpp"
#include "proto/http.hpp"
#include "proto/tcp.hpp"
#include "rdma/connection.hpp"
#include "runtime/cluster.hpp"
#include "sim/stats.hpp"

namespace pd::ingress {

/// Entry function id representing the gateway in chain headers.
inline constexpr FunctionId kIngressEntry{0xFFFF1000};

class PalladiumIngress : public IngressFrontend {
 public:
  struct Config {
    NodeId node{200};
    int initial_workers = 1;
    int max_workers = 8;
    /// Scale the worker pool on useful-CPU utilization (§3.6; see
    /// cost::kIngressScaleUpUtil).
    bool autoscale = false;
    /// Request-level recovery: if no response arrives within the deadline
    /// the gateway re-sends the request (at-least-once; the data plane
    /// suppresses duplicates where it can and the gateway tolerates
    /// duplicate responses). After two re-sends it answers 504.
    /// 0 disables deadlines (the pre-fault-model behaviour).
    sim::Duration request_deadline = 2'000'000;  // 2 ms
    /// Optional per-tenant admission gate, consulted before a request
    /// enters the fabric (ISSUE 7). Not owned; must outlive the ingress.
    /// Requests it sheds are answered 429 — explicit, never silent.
    control::AdmissionController* admission = nullptr;
  };

  PalladiumIngress(runtime::Cluster& cluster, Config config);

  /// Provision tenants' pools on the ingress node, establish RC
  /// connections (both directions), post SRQs, and sync routes. Call
  /// before Cluster::finish_setup().
  void finish_setup();

  // IngressFrontend:
  int attach_client(NodeId client_node, sim::Core& client_core,
                    std::function<void(std::string_view)> to_client) override;
  void client_send(int client, std::string bytes) override;
  void expose_chain(std::string target, std::uint32_t chain_id) override;

  // Introspection for Figs. 13/14.
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] int active_workers() const { return active_workers_; }
  [[nodiscard]] std::uint64_t responses() const { return responses_; }
  [[nodiscard]] sim::TimeSeries& response_series() { return response_series_; }
  [[nodiscard]] sim::TimeSeries& worker_series() { return worker_series_; }
  [[nodiscard]] sim::TimeSeries& useful_cpu_series() { return useful_cpu_series_; }
  [[nodiscard]] std::uint64_t scale_events() const { return scale_events_; }
  [[nodiscard]] std::size_t pending_requests() const { return pending_.size(); }

  /// Controller-driven horizontal scaling: set the worker pool to `n`
  /// (clamped to [1, max_workers]). No-op when already at `n`; otherwise
  /// the pool restarts exactly like the built-in autoscaler's transitions.
  void scale_to(int n);

  /// Work queued on the active worker cores, in scaled nanoseconds.
  /// Requests parked behind a worker-restart blip have not been parsed
  /// yet, so pending_requests() cannot see them — a feedback controller
  /// that only watched pending_requests() would read a restarting pool as
  /// idle and scale it down again, compounding the outage.
  [[nodiscard]] sim::Duration worker_backlog_ns();

  /// Register the gateway's gauge series (pending requests, worker count,
  /// CQ depth, per-tenant pool occupancy) on the edge shard's flight
  /// recorder. No-op unless Cluster::start_flight_recorder() ran first.
  void start_flight_probes();

  /// The gateway's own per-tenant pools (memory reporting).
  [[nodiscard]] const mem::MemoryDomain& memory() const { return mem_; }

  /// Resource-ledger wiring (ISSUE 10): attach the edge scheduler's clock
  /// to the gateway's pools so slot-ns occupancy integrals accrue.
  void attach_pool_clock();
  /// Fold the gateway pools' slot-ns (through the edge's current simulated
  /// time) into `led`. Call after the run drains.
  void collect_pool_slot_ns(obs::Ledger& led);

  // Fault-model introspection.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Requests answered 504 after the deadline + retry budget ran out.
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Requests answered 502 on an explicit data-plane error completion.
  [[nodiscard]] std::uint64_t bad_gateway() const { return bad_gateway_; }
  /// Requests answered 429 by the per-tenant admission gate (policy drop,
  /// distinct from the generic 502/504 fault counters).
  [[nodiscard]] std::uint64_t shed_admission() const { return shed_admission_; }
  /// Requests answered 504 with the retry budget spent — same events the
  /// timeouts() counter sees, exposed under the policy-drop name so
  /// dashboards can pair it with shed_admission().
  [[nodiscard]] std::uint64_t deadline_expired() const {
    return deadline_expired_;
  }

 private:
  struct ClientConn {
    std::unique_ptr<proto::TcpConnection> tcp;
    std::function<void(std::string_view)> to_client;
    int worker = 0;
  };
  struct PendingRequest {
    int client = -1;
    sim::TimePoint start = 0;
    std::uint32_t chain_id = 0;
    std::string body;   ///< kept for deadline-driven re-sends
    int attempts = 1;   ///< sends so far (first + retries)
    sim::EventId deadline = sim::kInvalidEvent;
    /// Trace context of the latest send attempt, kept so the 504 path can
    /// tag the trace with a "deadline_expired" policy span and close the
    /// root (0 = unsampled).
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
  };

  void on_client_bytes(int client, std::string_view bytes);
  void forward_to_chain(int client, const proto::HttpRequest& req);
  /// (Re-)send the pending request into the fabric. False on pool pressure
  /// (the armed deadline retries later).
  bool send_request(std::uint64_t request_id);
  void arm_deadline(std::uint64_t request_id);
  void on_deadline(std::uint64_t request_id);
  void respond_error(int client, int status, const char* reason);
  /// Emit a zero-length marker trace tagged `tag` ("shed_admission") so
  /// critpath attribution sees the policy drop even though the request
  /// never entered the fabric.
  void tag_policy_marker(const char* tag);
  void on_cq_event();
  void handle_response(const rdma::Completion& c);
  void post_receives(TenantId tenant, int n);
  void autoscale_tick();
  void apply_scaling(int new_count);
  void rebalance_connections();
  void sample_tick();
  sim::Core& worker_core(int w) { return cores_.core(static_cast<std::size_t>(w)); }

  runtime::Cluster& cluster_;
  Config config_;
  sim::Scheduler& sched_;
  mem::MemoryDomain mem_;
  std::unique_ptr<rdma::Rnic> rnic_;
  std::unique_ptr<rdma::ConnectionManager> conn_mgr_;
  sim::CoreSet cores_;
  int active_workers_ = 0;
  int next_worker_rr_ = 0;
  std::vector<sim::Duration> last_busy_;       // per worker, 1 s sampling
  std::vector<sim::Duration> autoscale_busy_;  // per worker, scaler window
  std::unordered_set<NodeId> connected_workers_;

  std::unordered_map<std::string, std::uint32_t> targets_;
  std::vector<std::unique_ptr<ClientConn>> clients_;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::uint64_t next_request_ = 1;
  std::uint64_t responses_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t bad_gateway_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t scale_events_ = 0;
  bool setup_done_ = false;

  sim::TimeSeries response_series_;
  sim::TimeSeries worker_series_;
  sim::TimeSeries useful_cpu_series_;
};

}  // namespace pd::ingress
