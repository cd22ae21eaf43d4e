#include "ingress/proxy_ingress.hpp"

#include <charconv>
#include <cstring>

#include "core/message.hpp"
#include "proto/cost_model.hpp"

namespace pd::ingress {
namespace {

constexpr sim::Duration kSeriesBucket = 1'000'000'000;  // 1 s
/// F-stack autoscaling ceiling on the proxy's worker cores.
constexpr int kMaxWorkers = 8;

sim::Duration parse_cost(std::size_t bytes) {
  return cost::kHttpParseBaseNs +
         static_cast<sim::Duration>(static_cast<double>(bytes) *
                                    cost::kHttpParsePerByteNs);
}

std::uint64_t read_tag(const proto::HttpHeaders& headers) {
  const auto tag = headers.get("X-Req");
  PD_CHECK(tag.has_value(), "missing X-Req correlation header");
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(tag->data(), tag->data() + tag->size(), value);
  PD_CHECK(ec == std::errc{} && ptr == tag->data() + tag->size(),
           "malformed X-Req header");
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerGateway
// ---------------------------------------------------------------------------

WorkerGateway::WorkerGateway(runtime::Cluster& cluster, NodeId node,
                             TenantId tenant, proto::StackKind stack)
    : cluster_(cluster),
      node_(node),
      stack_(stack),
      core_(cluster.worker(node).assign_core()),
      entry_{0xFFFF2000u + node.value()} {
  // Register as a chain entry so chain tails route responses back here.
  // Tenant is resolved per chain at injection.
  cluster_.register_entry(entry_, tenant, node_, core_,
                          [this](const mem::BufferDescriptor& d) {
                            on_chain_response(d);
                          });
}

void WorkerGateway::bind_uplink(std::function<void(std::string)> to_proxy) {
  to_proxy_ = std::move(to_proxy);
}

void WorkerGateway::on_proxy_bytes(std::string_view bytes) {
  // Second TCP termination + second HTTP parse — the duplicated protocol
  // processing of deferred transport conversion.
  auto data = std::make_shared<std::string>(bytes);
  core_.submit(parse_cost(bytes.size()), [this, data] {
    proto::HttpRequestParser parser;
    auto [status, consumed] = parser.feed(*data);
    PD_CHECK(status == proto::ParseStatus::kComplete,
             "gateway received malformed HTTP: " << parser.error());
    const proto::HttpRequest& req = parser.message();
    const std::uint64_t tag = read_tag(req.headers);

    // Resolve the chain from the target path "/chain/<id>"-agnostically:
    // the proxy rewrote the target to the numeric chain id.
    std::uint32_t chain_id = 0;
    const auto& t = req.target;
    const auto [p, ec] = std::from_chars(t.data() + 1, t.data() + t.size(),
                                         chain_id);
    PD_CHECK(ec == std::errc{} && p == t.data() + t.size(),
             "gateway got unresolvable target " << t);

    const std::uint64_t request_id = next_request_++;
    char tag_buf[24];
    std::snprintf(tag_buf, sizeof tag_buf, "%llu",
                  static_cast<unsigned long long>(tag));
    req_tags_[request_id] = tag_buf;
    const bool ok =
        cluster_.inject_request(entry_, node_, chain_id, request_id, &core_);
    if (!ok) {
      proto::HttpResponse resp;
      resp.status = 503;
      resp.reason = "Overloaded";
      resp.headers.add("X-Req", tag_buf);
      req_tags_.erase(request_id);
      to_proxy_(proto::serialize(resp));
    }
  });
}

void WorkerGateway::on_chain_response(const mem::BufferDescriptor& d) {
  auto& pool = cluster_.worker(node_).memory().by_pool(d.pool).pool();
  const auto actor = mem::actor_function(entry_);
  const auto span = pool.access(d, actor);
  const core::MessageHeader h = core::read_header(span);
  std::string body(reinterpret_cast<const char*>(span.data()) +
                       sizeof(core::MessageHeader),
                   h.payload_len);
  pool.release(d, actor);

  auto it = req_tags_.find(h.request_id);
  PD_CHECK(it != req_tags_.end(), "gateway response for unknown request");
  std::string tag = std::move(it->second);
  req_tags_.erase(it);

  core_.submit(cost::kHttpSerializeNs, [this, body = std::move(body),
                                        tag = std::move(tag)] {
    proto::HttpResponse resp;
    resp.headers.add("X-Req", tag);
    resp.body = body;
    to_proxy_(proto::serialize(resp));
  });
}

// ---------------------------------------------------------------------------
// ProxyIngress
// ---------------------------------------------------------------------------

ProxyIngress::ProxyIngress(runtime::Cluster& cluster, Config config)
    : cluster_(cluster),
      config_(config),
      sched_(cluster.scheduler()),
      cores_(sched_, "proxy-ingress/worker",
             static_cast<std::size_t>(
                 std::max(config.cores,
                          config.autoscale ? kMaxWorkers : config.cores))),
      active_workers_(config.cores),
      response_series_(kSeriesBucket, "proxy-rps"),
      worker_series_(kSeriesBucket, "proxy-workers"),
      useful_cpu_series_(kSeriesBucket, "proxy-useful-cpu") {
  PD_CHECK(config_.cores >= 1, "need at least one ingress core");
  last_busy_.assign(cores_.size(), 0);
  autoscale_busy_.assign(cores_.size(), 0);
}

void ProxyIngress::expose_chain(std::string target, std::uint32_t chain_id) {
  PD_CHECK(cluster_.chains().has(chain_id), "unknown chain " << chain_id);
  PD_CHECK(targets_.emplace(std::move(target), chain_id).second,
           "target already exposed");
}

sim::Core& ProxyIngress::rx_core(int worker) {
  return cores_.core(static_cast<std::size_t>(worker));
}

sim::Core& ProxyIngress::pick_core(int worker) {
  // Kernel stack: the OS scheduler migrates softirq/worker processing to
  // whichever core is least busy. User-level stacks pin each worker's
  // connections to its own core.
  return config_.stack == proto::StackKind::kKernel ? cores_.least_loaded()
                                                    : rx_core(worker);
}

void ProxyIngress::finish_setup() {
  PD_CHECK(!setup_done_, "proxy setup done twice");
  PD_CHECK(!targets_.empty(), "no chains exposed");
  setup_done_ = true;

  if (!cluster_.ethernet().attached(config_.node)) {
    cluster_.ethernet().attach(config_.node);
  }

  // One gateway per worker node hosting a chain's first hop; one TCP
  // uplink per gateway.
  std::unordered_map<NodeId, TenantId> gateway_nodes;
  for (const auto& [target, chain_id] : targets_) {
    (void)target;
    const auto& chain = cluster_.chains().by_id(chain_id);
    gateway_nodes.emplace(cluster_.placement_of(chain.hops.front().fn),
                          chain.tenant);
  }
  for (const auto& entry : gateway_nodes) {
    const NodeId node = entry.first;
    auto gw = std::make_unique<WorkerGateway>(cluster_, node, entry.second,
                                              config_.stack ==
                                                      proto::StackKind::kKernel
                                                  ? proto::StackKind::kKernel
                                                  : proto::StackKind::kFstack);
    WorkerGateway* raw = gw.get();
    gateways_.push_back(std::move(gw));

    proto::TcpEndpoint a;  // proxy side
    a.node = config_.node;
    a.stack = config_.stack;
    if (config_.stack == proto::StackKind::kKernel) {
      a.cores = &cores_;  // RSS across the kernel's cores
    } else {
      a.core = &rx_core(0);
    }
    a.on_message = [this, node](std::string_view bytes) {
      on_gateway_bytes(node, bytes);
    };
    proto::TcpEndpoint b;  // gateway side (on the worker node's CPU)
    b.node = node;
    b.stack = raw->stack();
    b.core = &raw->core();
    b.on_message = [raw](std::string_view bytes) {
      raw->on_proxy_bytes(bytes);
    };

    Uplink uplink;
    uplink.tcp = std::make_unique<proto::TcpConnection>(
        sched_, cluster_.ethernet(), std::move(a), std::move(b));
    uplink.gateway = raw;
    raw->bind_uplink([this, node](std::string bytes) {
      // Gateway -> proxy direction rides the same connection.
      uplinks_.at(node).tcp->send_b_to_a(std::move(bytes));
    });
    auto [it, inserted] = uplinks_.emplace(node, std::move(uplink));
    PD_CHECK(inserted, "duplicate uplink");
    it->second.tcp->connect(nullptr);
  }

  if (config_.autoscale) {
    PD_CHECK(config_.stack == proto::StackKind::kFstack,
             "autoscaling applies to the F-stack proxy");
    sched_.schedule_background_after(cost::kIngressScaleCheckPeriodNs,
                                     [this] { autoscale_tick(); });
  }
  sched_.schedule_background_after(kSeriesBucket, [this] { sample_tick(); });
}

int ProxyIngress::attach_client(NodeId client_node, sim::Core& client_core,
                                std::function<void(std::string_view)> to_client) {
  PD_CHECK(setup_done_, "attach_client before finish_setup");
  const int id = static_cast<int>(clients_.size());
  auto conn = std::make_unique<ClientConn>();
  conn->to_client = std::move(to_client);
  conn->worker = next_worker_rr_++ % active_workers_;

  if (!cluster_.ethernet().attached(client_node)) {
    cluster_.ethernet().attach(client_node);
  }

  proto::TcpEndpoint a;
  a.node = client_node;
  a.stack = proto::StackKind::kKernel;
  a.core = &client_core;
  a.on_message = [this, id](std::string_view bytes) {
    clients_[static_cast<std::size_t>(id)]->to_client(bytes);
  };
  proto::TcpEndpoint b;
  b.node = config_.node;
  b.stack = config_.stack;
  if (config_.stack == proto::StackKind::kKernel) {
    b.cores = &cores_;
  } else {
    b.core = &rx_core(conn->worker);
  }
  b.on_message = [this, id](std::string_view bytes) {
    on_client_bytes(id, bytes);
  };
  conn->tcp = std::make_unique<proto::TcpConnection>(sched_, cluster_.ethernet(),
                                                     std::move(a), std::move(b));
  conn->tcp->connect(nullptr);
  clients_.push_back(std::move(conn));
  return id;
}

void ProxyIngress::client_send(int client, std::string bytes) {
  clients_.at(static_cast<std::size_t>(client))->tcp->send_a_to_b(
      std::move(bytes));
}

void ProxyIngress::on_client_bytes(int client, std::string_view bytes) {
  ClientConn& c = *clients_.at(static_cast<std::size_t>(client));
  auto data = std::make_shared<std::string>(bytes);
  sim::Core& core = pick_core(c.worker);
  core.submit(parse_cost(bytes.size()), [this, client, data] {
    proto::HttpRequestParser parser;
    auto [status, consumed] = parser.feed(*data);
    PD_CHECK(status == proto::ParseStatus::kComplete,
             "proxy received malformed HTTP: " << parser.error());
    const proto::HttpRequest& req = parser.message();

    auto it = targets_.find(req.target);
    if (it == targets_.end()) {
      proto::HttpResponse resp;
      resp.status = 404;
      resp.reason = "Not Found";
      clients_[static_cast<std::size_t>(client)]->tcp->send_b_to_a(
          proto::serialize(resp));
      return;
    }
    const auto& chain = cluster_.chains().by_id(it->second);
    const NodeId gw_node = cluster_.placement_of(chain.hops.front().fn);

    // NGINX upstream machinery: connection bookkeeping, header rewrite,
    // request buffering toward the worker gateway.
    ClientConn& cc = *clients_.at(static_cast<std::size_t>(client));
    pick_core(cc.worker).submit(cost::kNginxProxyForwardNs);

    // Rewrite + tag, then proxy to the worker gateway over TCP.
    const std::uint64_t tag = next_tag_++;
    tag_client_[tag] = client;
    proto::HttpRequest fwd = req;
    fwd.target = "/" + std::to_string(chain.id);
    fwd.headers.add("X-Req", std::to_string(tag));
    uplinks_.at(gw_node).tcp->send_a_to_b(proto::serialize(fwd));
  });
}

void ProxyIngress::on_gateway_bytes(NodeId gateway, std::string_view bytes) {
  (void)gateway;
  auto data = std::make_shared<std::string>(bytes);
  sim::Core& core = pick_core(0);
  core.submit(parse_cost(bytes.size()), [this, data, &core] {
    proto::HttpResponseParser parser;
    auto [status, consumed] = parser.feed(*data);
    PD_CHECK(status == proto::ParseStatus::kComplete,
             "proxy received malformed gateway response");
    const proto::HttpResponse& resp = parser.message();
    const std::uint64_t tag = read_tag(resp.headers);

    auto it = tag_client_.find(tag);
    PD_CHECK(it != tag_client_.end(), "response for unknown tag " << tag);
    const int client = it->second;
    tag_client_.erase(it);

    // Upstream response relay bookkeeping.
    core.submit(cost::kNginxProxyForwardNs / 2);

    proto::HttpResponse out;
    out.status = resp.status;
    out.reason = resp.reason;
    out.body = resp.body;
    clients_.at(static_cast<std::size_t>(client))
        ->tcp->send_b_to_a(proto::serialize(out));
    ++responses_;
    response_series_.increment(sched_.now());
  });
}

void ProxyIngress::autoscale_tick() {
  double util_sum = 0;
  for (int w = 0; w < active_workers_; ++w) {
    const auto busy = rx_core(w).busy_ns();
    util_sum += static_cast<double>(busy -
                                    autoscale_busy_[static_cast<std::size_t>(w)]) /
                static_cast<double>(cost::kIngressScaleCheckPeriodNs);
  }
  for (std::size_t w = 0; w < cores_.size(); ++w) {
    autoscale_busy_[w] = cores_.core(w).busy_ns();
  }
  const double avg = util_sum / active_workers_;
  if (avg > cost::kIngressScaleUpUtil &&
      active_workers_ < kMaxWorkers) {
    ++active_workers_;
    for (int w = 0; w < active_workers_; ++w) {
      rx_core(w).submit(cost::kIngressWorkerRestartNs);
    }
  } else if (avg < cost::kIngressScaleDownUtil && active_workers_ > 1) {
    --active_workers_;
    for (int w = 0; w < active_workers_; ++w) {
      rx_core(w).submit(cost::kIngressWorkerRestartNs);
    }
  }
  // RSS rebalance client connections over the new worker set.
  int rr = 0;
  for (auto& c : clients_) {
    c->worker = rr++ % active_workers_;
    if (config_.stack == proto::StackKind::kFstack) {
      c->tcp->endpoint_b().core = &rx_core(c->worker);
    }
  }
  sched_.schedule_background_after(cost::kIngressScaleCheckPeriodNs,
                                   [this] { autoscale_tick(); });
}

void ProxyIngress::sample_tick() {
  worker_series_.add(sched_.now() - 1, active_workers_);
  double useful = 0;
  for (std::size_t w = 0; w < cores_.size(); ++w) {
    const auto busy = cores_.core(w).busy_ns();
    useful += sim::to_sec(busy - last_busy_[w]);
    last_busy_[w] = busy;
  }
  useful_cpu_series_.add(sched_.now() - 1, useful);
  sched_.schedule_background_after(kSeriesBucket, [this] { sample_tick(); });
}

WorkerGateway& ProxyIngress::gateway(NodeId node) {
  auto it = uplinks_.find(node);
  PD_CHECK(it != uplinks_.end(), "no gateway on node " << node);
  return *it->second.gateway;
}

}  // namespace pd::ingress
