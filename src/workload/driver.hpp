// Load drivers that inject requests directly into the serverless data
// plane (no HTTP ingress): the wrk-analog closed-loop driver used by the
// microbenchmarks and the bursty open-loop tenants of Fig. 15.
#pragma once

#include <unordered_map>

#include "runtime/cluster.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace pd::workload {

/// Closed-loop driver: `clients` logical connections, each with exactly
/// one outstanding request into one chain (wrk semantics). Records
/// per-request latency and a completions time series.
class ChainDriver {
 public:
  /// `entry`: a fresh pseudo-function id for this driver; it is registered
  /// on `node` with its own core.
  ChainDriver(runtime::Cluster& cluster, FunctionId entry, NodeId node,
              std::uint32_t chain_id);

  /// Launch the closed loop. Call after Cluster::finish_setup().
  void start(int clients);
  /// Stop issuing new requests (in-flight ones still complete).
  void stop() { running_ = false; }

  [[nodiscard]] sim::LatencyHistogram& latencies() { return latencies_; }
  [[nodiscard]] sim::TimeSeries& completions() { return completions_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Requests that came back as explicit error responses (data-plane
  /// failure under fault injection / shedding). completed + failed
  /// accounts for every finished request.
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] sim::Core& core() { return core_; }

  /// Completed requests per second over the measured window.
  [[nodiscard]] double rps(sim::TimePoint from, sim::TimePoint until) const;

 private:
  void send_one();
  void on_response(const mem::BufferDescriptor& d);

  runtime::Cluster& cluster_;
  FunctionId entry_;
  NodeId node_;
  std::uint32_t chain_id_;
  sim::Core& core_;
  bool running_ = false;
  std::uint64_t next_request_ = 1;
  std::unordered_map<std::uint64_t, sim::TimePoint> inflight_;
  sim::LatencyHistogram latencies_;
  sim::TimeSeries completions_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

/// Open-loop driver with an on/off schedule: tenant load for Fig. 15.
/// Issues requests at `rate_rps` (Poisson arrivals) while active; the
/// completions series shows the achieved per-tenant throughput.
class BurstyLoad {
 public:
  struct Schedule {
    sim::TimePoint start = 0;
    sim::TimePoint stop = 0;  ///< 0 = never stops
    double rate_rps = 0;
    /// Optional surge modulation: rate multiplies by `surge_factor` for
    /// `surge_on` out of every `surge_period` ns.
    double surge_factor = 1.0;
    sim::Duration surge_period = 0;
    sim::Duration surge_on = 0;
  };

  BurstyLoad(runtime::Cluster& cluster, FunctionId entry, NodeId node,
             std::uint32_t chain_id, Schedule schedule, std::uint64_t seed);

  void start();

  [[nodiscard]] sim::TimeSeries& completions() { return completions_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  void arrival();
  [[nodiscard]] double current_rate() const;
  void on_response(const mem::BufferDescriptor& d);

  runtime::Cluster& cluster_;
  FunctionId entry_;
  NodeId node_;
  std::uint32_t chain_id_;
  sim::Core& core_;
  Schedule schedule_;
  sim::Rng rng_;
  std::uint64_t next_request_ = 1;
  sim::TimeSeries completions_;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace pd::workload
