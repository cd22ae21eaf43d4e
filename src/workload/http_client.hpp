// wrk-analog HTTP load generator (§4): closed-loop clients on the client
// node driving any IngressFrontend over modeled kernel-TCP connections.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ingress/ingress.hpp"
#include "proto/http.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace pd::workload {

class HttpLoadGen {
 public:
  struct Config {
    NodeId client_node{100};
    std::string target = "/";
    std::string body = "{}";
    /// Cores available to client processes (wrk saturates one per client
    /// in Fig. 14; several clients can share a core otherwise).
    int client_cores = 4;
    /// Pause before re-issuing after a non-200 response (0 = immediately,
    /// the pre-overload behaviour). Overload scenarios set this so a tenant
    /// being shed at the gateway retries at a bounded rate instead of
    /// busy-looping at TCP round-trip speed.
    sim::Duration error_backoff = 0;
  };

  HttpLoadGen(sim::Scheduler& sched, ingress::IngressFrontend& ingress,
              Config config);

  /// Attach `n` more clients and start their request loops.
  void add_clients(int n);
  /// Stop issuing new requests.
  void stop() { running_ = false; }

  /// Step the offered load without attaching/detaching connections: only
  /// the first `n` clients keep their closed loops running; the rest park
  /// at their next turn (their in-flight request still completes, so the
  /// zero-loss invariant holds through every step). Raising `n` re-issues
  /// the parked clients' loops immediately. Drives the flash-crowd and
  /// diurnal overload scenarios.
  void set_active_clients(int n);

  [[nodiscard]] sim::LatencyHistogram& latencies() { return latencies_; }
  [[nodiscard]] sim::TimeSeries& completions() { return completions_; }
  /// Requests issued (the closed loop sends one per response received, so
  /// after a full drain sent == completed + errors — the zero-loss check).
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  [[nodiscard]] int clients() const { return static_cast<int>(clients_.size()); }

  [[nodiscard]] double rps(sim::TimePoint from, sim::TimePoint until) const;

 private:
  struct Client {
    int conn = -1;
    sim::TimePoint sent_at = 0;
    bool parked = false;  ///< loop paused by set_active_clients
  };

  void send_request(int idx);
  void on_response(int idx, std::string_view bytes);

  sim::Scheduler& sched_;
  ingress::IngressFrontend& ingress_;
  Config config_;
  std::unique_ptr<sim::CoreSet> cores_;
  std::vector<Client> clients_;
  bool running_ = true;
  /// Clients with running loops (indices < active_); SIZE_MAX = all.
  std::size_t active_ = static_cast<std::size_t>(-1);
  sim::LatencyHistogram latencies_;
  sim::TimeSeries completions_;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace pd::workload
