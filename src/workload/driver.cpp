#include "workload/driver.hpp"

#include <algorithm>

#include "core/message.hpp"
#include "core/trace_hooks.hpp"

namespace pd::workload {
namespace {

constexpr sim::Duration kPoolBackoffNs = 20'000;  // retry on pool pressure
constexpr sim::Duration kSeriesBucket = 1'000'000'000;  // 1 s

}  // namespace

// ---------------------------------------------------------------------------
// ChainDriver
// ---------------------------------------------------------------------------

ChainDriver::ChainDriver(runtime::Cluster& cluster, FunctionId entry,
                         NodeId node, std::uint32_t chain_id)
    : cluster_(cluster),
      entry_(entry),
      node_(node),
      chain_id_(chain_id),
      core_(cluster.worker(node).assign_core()),
      completions_(kSeriesBucket, "completions") {
  const TenantId tenant = cluster_.chains().by_id(chain_id_).tenant;
  cluster_.register_entry(entry_, tenant, node_, core_,
                          [this](const mem::BufferDescriptor& d) {
                            on_response(d);
                          });
}

void ChainDriver::start(int clients) {
  PD_CHECK(clients > 0, "need at least one client");
  running_ = true;
  // Stagger connection start-up (wrk ramps its connections too); perfectly
  // simultaneous starts would phase-lock the closed loops into convoys.
  for (int i = 0; i < clients; ++i) {
    cluster_.scheduler().schedule_after(static_cast<sim::Duration>(i) * 13'000,
                                        [this] { send_one(); });
  }
}

void ChainDriver::send_one() {
  if (!running_) return;
  const std::uint64_t id = next_request_++;
  if (!cluster_.inject_request(entry_, node_, chain_id_, id, &core_)) {
    // Pool pressure: back off and retry (the client connection stalls; the
    // skipped id is simply never used).
    cluster_.scheduler().schedule_after(kPoolBackoffNs, [this] { send_one(); });
    return;
  }
  inflight_.emplace(id, cluster_.scheduler().now());
}

void ChainDriver::on_response(const mem::BufferDescriptor& d) {
  auto& pool = cluster_.worker(node_).memory().by_pool(d.pool).pool();
  const core::MessageHeader h =
      core::read_header(pool.access(d, mem::actor_function(entry_)));
  // An error completion (the engine shed or failed the request) comes back
  // with kFlagError on the original request header, not kFlagResponse.
  PD_CHECK(h.is_response() || h.is_error(),
           "driver received a non-response");
  core::trace_finish(h, cluster_.scheduler().now());
  pool.release(d, mem::actor_function(entry_));

  auto it = inflight_.find(h.request_id);
  if (it == inflight_.end()) return;  // duplicate response (retransmit race)
  const sim::TimePoint start = it->second;
  inflight_.erase(it);

  const sim::TimePoint now = cluster_.scheduler().now();
  if (h.is_error()) {
    // Explicit failure from the data plane (fault injection / shedding):
    // the request is accounted as failed, and the closed loop moves on.
    ++failed_;
  } else {
    latencies_.record(now - start);
    completions_.increment(now);
    ++completed_;
  }
  send_one();  // closed loop: immediately issue the next request
}

double ChainDriver::rps(sim::TimePoint from, sim::TimePoint until) const {
  PD_CHECK(until > from, "empty measurement window");
  double total = 0;
  const auto first = static_cast<std::size_t>(from / completions_.bucket_width());
  const auto last = static_cast<std::size_t>(until / completions_.bucket_width());
  for (std::size_t i = first; i < last; ++i) total += completions_.bucket_value(i);
  return total / sim::to_sec(until - from);
}

// ---------------------------------------------------------------------------
// BurstyLoad
// ---------------------------------------------------------------------------

BurstyLoad::BurstyLoad(runtime::Cluster& cluster, FunctionId entry, NodeId node,
                       std::uint32_t chain_id, Schedule schedule,
                       std::uint64_t seed)
    : cluster_(cluster),
      entry_(entry),
      node_(node),
      chain_id_(chain_id),
      core_(cluster.worker(node).assign_core()),
      schedule_(schedule),
      rng_(seed),
      completions_(kSeriesBucket, "tenant-completions") {
  PD_CHECK(schedule_.rate_rps > 0, "bursty load needs a positive rate");
  const TenantId tenant = cluster_.chains().by_id(chain_id_).tenant;
  cluster_.register_entry(entry_, tenant, node_, core_,
                          [this](const mem::BufferDescriptor& d) {
                            on_response(d);
                          });
}

void BurstyLoad::start() {
  // Setup (RC connection establishment) may already have advanced the
  // clock past the schedule's nominal start.
  const sim::TimePoint at =
      std::max(schedule_.start, cluster_.scheduler().now());
  cluster_.scheduler().schedule_at(at, [this] { arrival(); });
}

double BurstyLoad::current_rate() const {
  double rate = schedule_.rate_rps;
  if (schedule_.surge_period > 0) {
    const auto phase = cluster_.scheduler().now() % schedule_.surge_period;
    if (phase < schedule_.surge_on) rate *= schedule_.surge_factor;
  }
  return rate;
}

void BurstyLoad::arrival() {
  const sim::TimePoint now = cluster_.scheduler().now();
  if (schedule_.stop != 0 && now >= schedule_.stop) return;

  const std::uint64_t id = next_request_++;
  if (cluster_.inject_request(entry_, node_, chain_id_, id, &core_)) {
    // Open loop: don't wait for the response.
  } else {
    ++dropped_;  // overload: pool exhausted, request lost
  }

  const double mean_gap_ns = 1e9 / current_rate();
  const auto gap = static_cast<sim::Duration>(rng_.exponential(mean_gap_ns));
  cluster_.scheduler().schedule_after(std::max<sim::Duration>(gap, 1),
                                      [this] { arrival(); });
}

void BurstyLoad::on_response(const mem::BufferDescriptor& d) {
  auto& pool = cluster_.worker(node_).memory().by_pool(d.pool).pool();
  if (obs::hub() != nullptr) {
    const core::MessageHeader h =
        core::read_header(pool.access(d, mem::actor_function(entry_)));
    core::trace_finish(h, cluster_.scheduler().now());
  }
  pool.release(d, mem::actor_function(entry_));
  completions_.increment(cluster_.scheduler().now());
  ++completed_;
}

}  // namespace pd::workload
