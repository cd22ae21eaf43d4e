#include "ingress/palladium_ingress.hpp"

#include <algorithm>
#include <cstring>

#include "core/message.hpp"
#include "core/trace_hooks.hpp"
#include "obs/hub.hpp"
#include "proto/cost_model.hpp"
#include "sim/profile.hpp"

namespace pd::ingress {
namespace {

constexpr sim::Duration kSeriesBucket = 1'000'000'000;  // 1 s
/// Deadline-driven re-sends before the gateway answers 504.
constexpr int kMaxRetries = 2;
/// Receive buffers posted per tenant on the gateway's RNIC.
constexpr int kSrqFill = 256;
/// RC connections per (first-hop worker, tenant) pool.
constexpr int kRcConnections = 2;

}  // namespace

PalladiumIngress::PalladiumIngress(runtime::Cluster& cluster, Config config)
    : cluster_(cluster),
      config_(config),
      sched_(cluster.scheduler()),
      mem_(config.node),
      cores_(sched_, "ingress/worker",
             static_cast<std::size_t>(config.max_workers)),
      response_series_(kSeriesBucket, "ingress-rps"),
      worker_series_(kSeriesBucket, "ingress-workers"),
      useful_cpu_series_(kSeriesBucket, "ingress-useful-cpu") {
  PD_CHECK(cluster_.rdma_net() != nullptr,
           "Palladium ingress requires an RDMA-capable cluster");
  PD_CHECK(config_.initial_workers >= 1 &&
               config_.initial_workers <= config_.max_workers,
           "bad worker bounds");
  rnic_ = std::make_unique<rdma::Rnic>(*cluster_.rdma_net(), config_.node, mem_);
  conn_mgr_ = std::make_unique<rdma::ConnectionManager>(*rnic_);
  rnic_->cq().set_notify([this] { on_cq_event(); });
  active_workers_ = config_.initial_workers;
  last_busy_.assign(static_cast<std::size_t>(config_.max_workers), 0);
}

void PalladiumIngress::expose_chain(std::string target,
                                    std::uint32_t chain_id) {
  PD_CHECK(cluster_.chains().has(chain_id), "unknown chain " << chain_id);
  PD_CHECK(targets_.emplace(std::move(target), chain_id).second,
           "target already exposed");
}

void PalladiumIngress::finish_setup() {
  PD_CHECK(!setup_done_, "ingress setup done twice");
  PD_CHECK(!targets_.empty(), "no chains exposed");
  setup_done_ = true;

  // Collect the tenants behind exposed chains and the worker nodes that
  // host their first hops / can send us responses.
  std::unordered_map<TenantId, bool> tenants;
  for (const auto& [target, chain_id] : targets_) {
    tenants[cluster_.chains().by_id(chain_id).tenant] = true;
  }

  for (const auto& [tenant, unused] : tenants) {
    auto& tm = mem_.create_tenant_pool(
        tenant, "ingress_tenant_" + std::to_string(tenant.value()),
        cluster_.config().pool_buffers, cluster_.config().buffer_bytes);
    tm.export_to_rdma();
    rnic_->register_memory(tm.pool_id());
    post_receives(tenant, kSrqFill);
  }

  // Make the gateway reachable from every worker's data plane and
  // establish our outbound RC pools per (worker node, tenant).
  cluster_.register_external_entry(kIngressEntry, config_.node);
  for (const auto& [target, chain_id] : targets_) {
    const auto& chain = cluster_.chains().by_id(chain_id);
    const NodeId first_node = cluster_.placement_of(chain.hops.front().fn);
    if (conn_mgr_->pool_size(first_node, chain.tenant) == 0) {
      conn_mgr_->establish(first_node, chain.tenant, kRcConnections,
                           nullptr);
    }
  }
  // Every worker node's data plane learns the ingress as a peer so chain
  // tails can send responses back over RDMA.
  for (const auto& [target, chain_id] : targets_) {
    (void)target;
    const auto& chain = cluster_.chains().by_id(chain_id);
    for (const auto& hop : chain.hops) {
      const NodeId n = cluster_.placement_of(hop.fn);
      if (!connected_workers_.insert(n).second) continue;
      cluster_.worker(n).dataplane().connect_peer(config_.node);
    }
  }

  autoscale_busy_.assign(static_cast<std::size_t>(config_.max_workers), 0);
  if (config_.autoscale) {
    sched_.schedule_background_after(cost::kIngressScaleCheckPeriodNs,
                                     [this] { autoscale_tick(); });
  }
  sched_.schedule_background_after(kSeriesBucket, [this] { sample_tick(); });
}

void PalladiumIngress::start_flight_probes() {
  PD_CHECK(setup_done_, "start_flight_probes requires finish_setup first");
  obs::FlightRecorder* rec = cluster_.flight_recorder(config_.node);
  if (rec == nullptr) return;  // recorder not started: observability off
  rec->probe("ingress.pending_requests", {}, [this] {
    return static_cast<double>(pending_.size());
  });
  rec->probe("ingress.active_workers", {}, [this] {
    return static_cast<double>(active_workers_);
  });
  rec->probe("ingress.clients", {}, [this] {
    return static_cast<double>(clients_.size());
  });
  rec->probe("ingress.cq_depth", {}, [this] {
    return static_cast<double>(rnic_->cq().depth());
  });
  // Deterministic per-tenant order (pools() iterates creation order,
  // which finish_setup derives from a hash map — sort by tenant id).
  std::vector<const mem::TenantMemory*> pools;
  for (const auto& tm : mem_.pools()) pools.push_back(tm.get());
  std::sort(pools.begin(), pools.end(),
            [](const mem::TenantMemory* a, const mem::TenantMemory* b) {
              return a->tenant() < b->tenant();
            });
  for (const mem::TenantMemory* tm : pools) {
    rec->probe("ingress.pool_in_use",
               "tenant=" + std::to_string(tm->tenant().value()),
               [pool = &tm->pool()] {
                 return static_cast<double>(pool->in_use());
               });
  }
}

void PalladiumIngress::attach_pool_clock() {
  sim::Scheduler* s = &sched_;
  mem_.set_clock([s] { return s->now(); });
}

void PalladiumIngress::collect_pool_slot_ns(obs::Ledger& led) {
  if (!led.enabled()) return;
  const sim::TimePoint now = sched_.now();
  for (const auto& tm : mem_.pools()) {
    const mem::BufferPool& pool = tm->pool();
    led.add_slot_ns("node" + std::to_string(config_.node.value()) + "/pool/" +
                        tm->file_prefix(),
                    static_cast<std::int64_t>(pool.tenant().value()),
                    pool.slot_ns(now), pool.footprint());
  }
}

void PalladiumIngress::sample_tick() {
  // Per-second series for Fig. 14: active worker count (each pinned to a
  // full busy-polling core) and aggregate *useful* CPU seconds.
  worker_series_.add(sched_.now() - 1, active_workers_);
  // Every worker counts, not only the active ones: one scaled down during
  // the second did useful work before it stopped.
  double useful = 0;
  for (int w = 0; w < config_.max_workers; ++w) {
    const auto busy = worker_core(w).busy_ns();
    useful += sim::to_sec(busy - last_busy_[static_cast<std::size_t>(w)]);
    last_busy_[static_cast<std::size_t>(w)] = busy;
  }
  useful_cpu_series_.add(sched_.now() - 1, useful);
  sched_.schedule_background_after(kSeriesBucket, [this] { sample_tick(); });
}

void PalladiumIngress::post_receives(TenantId tenant, int n) {
  auto& pool = mem_.by_tenant(tenant).pool();
  for (int i = 0; i < n; ++i) {
    auto d = pool.allocate(mem::actor_rnic(config_.node));
    if (!d.has_value()) return;  // pool pressure: responses will RNR-retry
    rnic_->post_srq_recv(tenant, *d);
  }
}

int PalladiumIngress::attach_client(
    NodeId client_node, sim::Core& client_core,
    std::function<void(std::string_view)> to_client) {
  PD_CHECK(setup_done_, "attach_client before finish_setup");
  const int id = static_cast<int>(clients_.size());
  auto conn = std::make_unique<ClientConn>();
  conn->to_client = std::move(to_client);
  conn->worker = next_worker_rr_++ % active_workers_;  // RSS spread

  if (!cluster_.ethernet().attached(client_node)) {
    cluster_.ethernet().attach(client_node);
  }
  if (!cluster_.ethernet().attached(config_.node)) {
    cluster_.ethernet().attach(config_.node);
  }

  proto::TcpEndpoint a;  // client side
  a.node = client_node;
  a.stack = proto::StackKind::kKernel;
  a.core = &client_core;
  a.on_message = [this, id](std::string_view bytes) {
    clients_[static_cast<std::size_t>(id)]->to_client(bytes);
  };
  proto::TcpEndpoint b;  // gateway side: batched F-stack on the worker core
  b.node = config_.node;
  b.stack = proto::StackKind::kFstackBatched;
  b.core = &worker_core(conn->worker);
  b.on_message = [this, id](std::string_view bytes) {
    on_client_bytes(id, bytes);
  };
  conn->tcp = std::make_unique<proto::TcpConnection>(sched_, cluster_.ethernet(),
                                                     std::move(a), std::move(b));
  conn->tcp->connect(nullptr);
  clients_.push_back(std::move(conn));
  return id;
}

void PalladiumIngress::client_send(int client, std::string bytes) {
  clients_.at(static_cast<std::size_t>(client))->tcp->send_a_to_b(
      std::move(bytes));
}

void PalladiumIngress::on_client_bytes(int client, std::string_view bytes) {
  // HTTP processing on the worker's core (NGINX-grade parser).
  ClientConn& c = *clients_.at(static_cast<std::size_t>(client));
  const auto parse_ns =
      cost::kHttpParseBaseNs +
      static_cast<sim::Duration>(static_cast<double>(bytes.size()) *
                                 cost::kHttpParsePerByteNs);
  auto parser = std::make_shared<proto::HttpRequestParser>();
  auto data = std::make_shared<std::string>(bytes);
  sim::ProfileScope scope{"ingress", "http_parse"};
  worker_core(c.worker).submit(parse_ns, [this, client, parser, data] {
    auto [status, consumed] = parser->feed(*data);
    PD_CHECK(status == proto::ParseStatus::kComplete,
             "ingress received malformed/partial HTTP: " << parser->error());
    forward_to_chain(client, parser->message());
  });
}

void PalladiumIngress::forward_to_chain(int client,
                                        const proto::HttpRequest& req) {
  auto it = targets_.find(req.target);
  if (it == targets_.end()) {
    // 404: respond immediately.
    proto::HttpResponse resp;
    resp.status = 404;
    resp.reason = "Not Found";
    ClientConn& c = *clients_.at(static_cast<std::size_t>(client));
    c.tcp->send_b_to_a(proto::serialize(resp));
    return;
  }
  const auto& chain = cluster_.chains().by_id(it->second);

  if (config_.admission != nullptr &&
      config_.admission->try_admit(chain.tenant, sched_.now()) ==
          control::Verdict::kShed) {
    // Policy drop, not a fault: explicit 429, its own counter (distinct
    // from the 502/504 fault paths), and a tagged marker trace so critpath
    // attribution books it under "policy".
    ++shed_admission_;
    if (auto* hub = obs::hub()) {
      hub->registry
          .counter("ingress.shed_admission",
                   "tenant=" + std::to_string(chain.tenant.value()))
          .inc();
      hub->slo.record_error(chain.tenant, chain.id, sched_.now());
    }
    tag_policy_marker("shed_admission");
    respond_error(client, 429, "Too Many Requests");
    return;
  }

  const std::uint64_t request_id = next_request_++;
  PendingRequest pr;
  pr.client = client;
  pr.start = sched_.now();
  pr.chain_id = chain.id;
  pr.body = req.body;
  pending_.emplace(request_id, std::move(pr));

  if (!send_request(request_id)) {
    // Pool pressure on the very first attempt: shed immediately.
    pending_.erase(request_id);
    if (auto* hub = obs::hub()) {
      hub->slo.record_error(chain.tenant, chain.id, sched_.now());
    }
    proto::HttpResponse resp;
    resp.status = 503;
    resp.reason = "Overloaded";
    ClientConn& c = *clients_.at(static_cast<std::size_t>(client));
    c.tcp->send_b_to_a(proto::serialize(resp));
    return;
  }
  arm_deadline(request_id);
}

bool PalladiumIngress::send_request(std::uint64_t request_id) {
  auto pit = pending_.find(request_id);
  PD_CHECK(pit != pending_.end(), "send for untracked request " << request_id);
  PendingRequest& pr = pit->second;
  const auto& chain = cluster_.chains().by_id(pr.chain_id);
  auto& pool = mem_.by_tenant(chain.tenant).pool();
  const auto actor = mem::actor_engine(config_.node);

  auto d = pool.allocate(actor);
  if (!d.has_value()) return false;

  core::MessageHeader h;
  h.request_id = request_id;
  h.src_fn = kIngressEntry.value();
  h.dst_fn = chain.hops.front().fn.value();
  h.chain_id = chain.id;
  h.hop_index = 0;
  h.client_id = kIngressEntry.value();
  h.payload_len = chain.request_payload;
  core::trace_start(h, "ingress",
                    "node" + std::to_string(config_.node.value()) + "/ingress",
                    sched_.now());
  // Remember the (latest attempt's) trace so the 504 path can tag it.
  pr.trace_id = h.trace_id;
  pr.root_span = h.root_span;
  auto span = pool.access(*d, actor);
  core::write_header(span, h);
  // Carry the real request body into the payload region (zero-copy from
  // here on: these bytes ride RDMA to the functions untouched).
  const auto body_len = std::min<std::size_t>(
      pr.body.size(), span.size() - sizeof(core::MessageHeader));
  std::memcpy(span.data() + sizeof(core::MessageHeader), pr.body.data(),
              body_len);
  const auto sized =
      pool.resize(*d, actor, core::message_bytes(chain.request_payload));

  ClientConn& c = *clients_.at(static_cast<std::size_t>(pr.client));

  // RDMA transmission from the worker's run-to-completion loop.
  sim::ProfileScope scope{"ingress", "rdma_tx", chain.tenant.value()};
  worker_core(c.worker).submit(
      cost::kDneSchedNs + cost::kDneTxStageNs,
      [this, sized, first_node = cluster_.placement_of(chain.hops.front().fn),
       tenant = chain.tenant, request_id] {
        auto& p = mem_.by_tenant(tenant).pool();
        p.transfer(sized, mem::actor_engine(config_.node),
                   mem::actor_rnic(config_.node));
        rdma::WorkRequest wr;
        wr.wr_id = request_id;
        wr.opcode = rdma::Opcode::kSend;
        wr.local = sized;
        conn_mgr_->send(first_node, tenant, wr);
      });
  return true;
}

void PalladiumIngress::arm_deadline(std::uint64_t request_id) {
  if (config_.request_deadline <= 0) return;
  auto pit = pending_.find(request_id);
  PD_CHECK(pit != pending_.end(), "deadline for untracked request");
  pit->second.deadline = sched_.schedule_after(
      config_.request_deadline, [this, request_id] { on_deadline(request_id); });
}

void PalladiumIngress::on_deadline(std::uint64_t request_id) {
  auto pit = pending_.find(request_id);
  if (pit == pending_.end()) return;  // response raced the timer
  PendingRequest& pr = pit->second;
  pr.deadline = sim::kInvalidEvent;

  if (pr.attempts > kMaxRetries) {
    // Retry budget exhausted: fail the request explicitly. This is a
    // policy decision (the gateway giving up), so it gets its own counter
    // and a "deadline_expired" span on the request's trace — distinct from
    // the generic 502/504 fault bookkeeping.
    ++timeouts_;
    ++deadline_expired_;
    const int client = pr.client;
    const TenantId tenant = cluster_.chains().by_id(pr.chain_id).tenant;
    if (auto* hub = obs::hub()) {
      hub->slo.record_error(tenant, pr.chain_id, sched_.now());
      hub->registry
          .counter("ingress.deadline_expired",
                   "tenant=" + std::to_string(tenant.value()))
          .inc();
      if (pr.trace_id != 0) {
        // Tag and terminate the trace: the in-fabric hop span stays open
        // (the request genuinely never came back), but the root closes so
        // attribution can book the tail as policy instead of losing the
        // whole trace as incomplete.
        const auto s = hub->tracer.begin_span(
            pr.trace_id, pr.root_span, "deadline_expired",
            "node" + std::to_string(config_.node.value()) + "/ingress",
            sched_.now());
        hub->tracer.end_span(s, sched_.now());
        hub->tracer.end_span(pr.root_span, sched_.now());
      }
    }
    pending_.erase(pit);
    respond_error(client, 504, "Gateway Timeout");
    return;
  }
  ++pr.attempts;
  ++retries_;
  // At-least-once: the original may still be in flight somewhere — the
  // gateway tolerates whichever response arrives second. A false return
  // (pool pressure) is fine: the re-armed deadline tries again.
  (void)send_request(request_id);
  arm_deadline(request_id);
}

void PalladiumIngress::tag_policy_marker(const char* tag) {
  obs::Hub* hub = obs::hub();
  if (hub == nullptr) return;
  const std::string track =
      "node" + std::to_string(config_.node.value()) + "/ingress";
  const obs::TraceContext ctx = hub->tracer.start_trace(track, sched_.now());
  if (!ctx.sampled()) return;
  const auto s = hub->tracer.begin_span(ctx.trace_id, ctx.root_span, tag,
                                        track, sched_.now());
  hub->tracer.end_span(s, sched_.now());
  hub->tracer.end_span(ctx.root_span, sched_.now());
}

void PalladiumIngress::respond_error(int client, int status,
                                     const char* reason) {
  ClientConn& conn = *clients_.at(static_cast<std::size_t>(client));
  sim::ProfileScope scope{"ingress", "http_serialize"};
  worker_core(conn.worker)
      .submit(cost::kHttpSerializeNs, [this, client, status, reason] {
        proto::HttpResponse resp;
        resp.status = status;
        resp.reason = reason;
        ClientConn& c = *clients_.at(static_cast<std::size_t>(client));
        c.tcp->send_b_to_a(proto::serialize(resp));
      });
}

void PalladiumIngress::on_cq_event() {
  for (const auto& c : rnic_->cq().poll(64)) {
    if (!c.is_recv) {
      // Send completion: recycle the request buffer.
      auto& pool = mem_.by_pool(c.buffer.pool).pool();
      pool.transfer(c.buffer, mem::actor_rnic(config_.node),
                    mem::actor_engine(config_.node));
      pool.release(c.buffer, mem::actor_engine(config_.node));
      continue;
    }
    handle_response(c);
  }
}

void PalladiumIngress::handle_response(const rdma::Completion& c) {
  auto& pool = mem_.by_pool(c.buffer.pool).pool();
  const auto actor = mem::actor_engine(config_.node);
  pool.transfer(c.buffer, mem::actor_rnic(config_.node), actor);
  const auto span = pool.access(c.buffer, actor);
  const core::MessageHeader h = core::read_header(span);

  // Acknowledge sequenced arrivals — including duplicates, whose earlier
  // ACK was evidently lost — so the sending engine can retire its copy.
  if (h.seq != 0) {
    const NodeId sender = rnic_->qp(c.qp).remote_node();
    if (sender.valid()) {
      cluster_.rdma_net()->send_datagram(
          config_.node, sender,
          rdma::Datagram{rdma::Datagram::Kind::kAck, h.seq});
    }
  }

  auto it = pending_.find(h.request_id);
  if (it == pending_.end()) {
    // Duplicate (a retransmit raced our ACK, or a gateway re-send made the
    // chain answer twice) or a straggler past its 504. Recycle quietly.
    pool.release(c.buffer, actor);
    post_receives(c.tenant, 1);
    return;
  }
  core::trace_finish(h, sched_.now());
  const PendingRequest req = std::move(it->second);
  if (req.deadline != sim::kInvalidEvent) sched_.cancel(req.deadline);
  pending_.erase(it);

  if (h.is_error()) {
    // The data plane failed this request explicitly (retries exhausted,
    // shed, or unroutable): surface it as a 502 instead of waiting for the
    // deadline.
    ++bad_gateway_;
    const TenantId t = c.tenant;
    if (auto* hub = obs::hub()) {
      hub->slo.record_error(t, req.chain_id, sched_.now());
    }
    pool.release(c.buffer, actor);
    post_receives(t, 1);
    respond_error(req.client, 502, "Bad Gateway");
    return;
  }

  // Extract the payload before recycling the buffer + replenishing.
  std::string body(reinterpret_cast<const char*>(span.data()) +
                       sizeof(core::MessageHeader),
                   h.payload_len);
  const TenantId tenant = c.tenant;
  if (auto* hub = obs::hub()) {
    hub->slo.record(tenant, req.chain_id, sched_.now() - req.start,
                    sched_.now());
  }
  pool.release(c.buffer, actor);
  post_receives(tenant, 1);

  ClientConn& conn = *clients_.at(static_cast<std::size_t>(req.client));
  const auto serialize_ns = cost::kDneRxStageNs + cost::kHttpSerializeNs;
  sim::ProfileScope scope{"ingress", "http_serialize", tenant.value()};
  worker_core(conn.worker).submit(serialize_ns, [this, client = req.client,
                                                 body = std::move(body)] {
    proto::HttpResponse resp;
    resp.body = body;
    ClientConn& c2 = *clients_.at(static_cast<std::size_t>(client));
    c2.tcp->send_b_to_a(proto::serialize(resp));
    ++responses_;
    response_series_.increment(sched_.now());
  });
}

void PalladiumIngress::autoscale_tick() {
  // Average *useful* utilization across active workers over the last
  // period (busy-polling time is excluded by construction: we track
  // accumulated work, not occupancy).
  double util_sum = 0;
  for (int w = 0; w < active_workers_; ++w) {
    const auto busy = worker_core(w).busy_ns();
    util_sum += static_cast<double>(busy - autoscale_busy_[static_cast<std::size_t>(w)]) /
                static_cast<double>(cost::kIngressScaleCheckPeriodNs);
  }
  for (int w = 0; w < config_.max_workers; ++w) {
    autoscale_busy_[static_cast<std::size_t>(w)] = worker_core(w).busy_ns();
  }
  const double avg = util_sum / active_workers_;

  if (avg > cost::kIngressScaleUpUtil &&
      active_workers_ < config_.max_workers) {
    apply_scaling(active_workers_ + 1);
  } else if (avg < cost::kIngressScaleDownUtil && active_workers_ > 1) {
    apply_scaling(active_workers_ - 1);
  }
  sched_.schedule_background_after(cost::kIngressScaleCheckPeriodNs,
                                   [this] { autoscale_tick(); });
}

sim::Duration PalladiumIngress::worker_backlog_ns() {
  sim::Duration total = 0;
  for (int w = 0; w < active_workers_; ++w) total += worker_core(w).backlog();
  return total;
}

void PalladiumIngress::scale_to(int n) {
  PD_CHECK(setup_done_, "scale_to before finish_setup");
  const int clamped = std::clamp(n, 1, config_.max_workers);
  if (clamped == active_workers_) return;
  apply_scaling(clamped);
}

void PalladiumIngress::apply_scaling(int new_count) {
  ++scale_events_;
  active_workers_ = new_count;
  rebalance_connections();
  // Worker-process restart: a brief interruption while the pool respawns
  // (§3.6 / Fig. 14 (2)) — queued work waits behind the restart.
  sim::ProfileScope scope{"ingress", "worker_restart"};
  for (int w = 0; w < active_workers_; ++w) {
    worker_core(w).submit(cost::kIngressWorkerRestartNs);
  }
}

void PalladiumIngress::rebalance_connections() {
  int rr = 0;
  for (auto& c : clients_) {
    c->worker = rr++ % active_workers_;
    c->tcp->endpoint_b().core = &worker_core(c->worker);
  }
}

}  // namespace pd::ingress
