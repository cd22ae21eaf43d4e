#include "workload/http_client.hpp"

#include <algorithm>

namespace pd::workload {
namespace {
constexpr sim::Duration kSeriesBucket = 1'000'000'000;  // 1 s
}

HttpLoadGen::HttpLoadGen(sim::Scheduler& sched,
                         ingress::IngressFrontend& ingress, Config config)
    : sched_(sched),
      ingress_(ingress),
      config_(std::move(config)),
      cores_(std::make_unique<sim::CoreSet>(
          sched, "client/cpu", static_cast<std::size_t>(config_.client_cores))),
      completions_(kSeriesBucket, "client-completions") {
  PD_CHECK(config_.client_cores >= 1, "client needs cores");
}

void HttpLoadGen::add_clients(int n) {
  for (int i = 0; i < n; ++i) {
    const int idx = static_cast<int>(clients_.size());
    clients_.push_back(Client{});
    sim::Core& core =
        cores_->core(static_cast<std::size_t>(idx) % cores_->size());
    clients_[static_cast<std::size_t>(idx)].conn = ingress_.attach_client(
        config_.client_node, core,
        [this, idx](std::string_view bytes) { on_response(idx, bytes); });
    // Stagger first requests to avoid deterministic convoy phase-lock.
    sched_.schedule_after(static_cast<sim::Duration>(i % 64) * 17'000,
                          [this, idx] { send_request(idx); });
  }
}

void HttpLoadGen::set_active_clients(int n) {
  PD_CHECK(n >= 0, "negative active-client count");
  const std::size_t prev = std::min(active_, clients_.size());
  active_ = static_cast<std::size_t>(n);
  // Wake clients re-entering the active set; they parked with no request
  // in flight, so re-issuing here starts exactly one loop each.
  const std::size_t until = std::min(active_, clients_.size());
  for (std::size_t i = prev; i < until; ++i) {
    if (!clients_[i].parked) continue;
    clients_[i].parked = false;
    send_request(static_cast<int>(i));
  }
}

void HttpLoadGen::send_request(int idx) {
  if (!running_) return;
  Client& c = clients_[static_cast<std::size_t>(idx)];
  if (static_cast<std::size_t>(idx) >= active_) {
    c.parked = true;  // load step: pause this loop until re-activated
    return;
  }
  proto::HttpRequest req;
  req.method = "POST";
  req.target = config_.target;
  req.headers.add("Host", "palladium.cluster");
  req.body = config_.body;
  c.sent_at = sched_.now();
  ++sent_;
  ingress_.client_send(c.conn, proto::serialize(req));
}

void HttpLoadGen::on_response(int idx, std::string_view bytes) {
  Client& c = clients_[static_cast<std::size_t>(idx)];
  proto::HttpResponseParser parser;
  auto [status, consumed] = parser.feed(bytes);
  PD_CHECK(status == proto::ParseStatus::kComplete,
           "client received malformed response");
  if (parser.message().status != 200) {
    ++errors_;
    if (config_.error_backoff > 0) {
      sched_.schedule_after(config_.error_backoff,
                            [this, idx] { send_request(idx); });
      return;
    }
  } else {
    latencies_.record(sched_.now() - c.sent_at);
    completions_.increment(sched_.now());
    ++completed_;
  }
  send_request(idx);  // closed loop
}

double HttpLoadGen::rps(sim::TimePoint from, sim::TimePoint until) const {
  PD_CHECK(until > from, "empty window");
  double total = 0;
  const auto first = static_cast<std::size_t>(from / completions_.bucket_width());
  const auto last = static_cast<std::size_t>(until / completions_.bucket_width());
  for (std::size_t i = first; i < last; ++i) total += completions_.bucket_value(i);
  return total / sim::to_sec(until - from);
}

}  // namespace pd::workload
