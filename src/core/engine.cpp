#include "core/engine.hpp"

#include "core/trace_hooks.hpp"
#include "dpu/mmap.hpp"
#include "obs/hub.hpp"
#include "proto/cost_model.hpp"
#include "sim/profile.hpp"

namespace pd::core {

namespace {
/// Total send attempts per message (first send + retries) before the
/// engine gives up and emits an explicit error completion.
constexpr int kMaxSendAttempts = 4;
/// Floor on any tenant's credit cap, so low-weight tenants keep enough
/// credits to make progress even on a crowded node.
constexpr std::size_t kMinTenantCredits = 8;
}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kDneOffPath: return "DNE (off-path)";
    case EngineKind::kDneOnPath: return "DNE (on-path)";
    case EngineKind::kCne: return "CNE";
  }
  return "?";
}

NetworkEngine::NetworkEngine(sim::Scheduler& sched, EngineKind kind,
                             EngineConfig config, sim::Core& engine_core,
                             rdma::Rnic& rnic, mem::MemoryDomain& host_mem,
                             dpu::Dpu* dpu)
    : sched_(sched),
      kind_(kind),
      config_(config),
      engine_core_(engine_core),
      rnic_(rnic),
      host_mem_(host_mem),
      dpu_(dpu),
      conn_mgr_(rnic, config.max_active_qps) {
  PD_CHECK(kind_ == EngineKind::kCne || dpu_ != nullptr,
           "DNE flavours require a DPU");
  PD_CHECK(config_.srq_fill > 0 && config_.rc_connections > 0,
           "bad engine config");
  PD_CHECK(!config_.tenant_admission || config_.use_dwrr,
           "tenant_admission requires DWRR scheduling");
  PD_CHECK(config_.retransmit_timeout > 0,
           "retransmit_timeout must be positive");

  if (kind_ == EngineKind::kCne) {
    sockmap_ = std::make_unique<ipc::SockMap>(sched_);
    // The engine's own socket: functions redirect descriptors here for
    // inter-node sends.
    sockmap_->register_socket(kEngineSocket, engine_core_,
                              [this](const mem::BufferDescriptor& d) {
                                on_ingest(d);
                              });
  } else {
    comch_ = std::make_unique<dpu::ComchServer>(
        sched_, engine_core_, dpu::ComchVariant::kEvent,
        [this](FunctionId, const mem::BufferDescriptor& d) { on_ingest(d); });
    engine_core_.set_busy_poll(true);  // run-to-completion busy loop
  }

  track_ = "node" + std::to_string(node().value()) +
           (kind_ == EngineKind::kCne ? "/cne" : "/dne");
  ledger_queue_ = track_ + "/txq";

  rnic_.cq().set_notify([this] { kick_rx(); });
  // The reliability layer's ACK/NACK control channel (hardware-generated
  // in the real DNE: no engine-core cost on either end).
  rnic_.network().set_datagram_handler(
      node(),
      [this](NodeId from, const rdma::Datagram& dg) { on_datagram(from, dg); });
  // Fault-injected SRQ drains bypass the CQE path; reconcile the RBR so the
  // replenisher sees the deficit and refills.
  rnic_.set_drain_listener([this](TenantId t, const mem::BufferDescriptor& d) {
    rbr_.on_dropped(t, d);
  });
  sched_.schedule_background_after(config_.replenish_period,
                                   [this] { replenish_tick(); });
}

mem::BufferPool& NetworkEngine::pool_of(const mem::BufferDescriptor& d) {
  return host_mem_.by_pool(d.pool).pool();
}

void NetworkEngine::ledger_queue_enter(TenantId tenant) {
  auto* h = obs::hub();
  if (h == nullptr || !h->ledger.enabled()) return;
  h->ledger.queue_enter(obs::LedgerKind::kQueue, ledger_queue_,
                        tenant.value(), sched_.now());
}

void NetworkEngine::ledger_queue_exit(TenantId tenant) {
  auto* h = obs::hub();
  if (h == nullptr || !h->ledger.enabled()) return;
  const sim::TimePoint now = sched_.now();
  h->ledger.queue_exit(obs::LedgerKind::kQueue, ledger_queue_, tenant.value(),
                       now);
  // The dequeued message's TX slice, in engine-core time — the occupancy
  // later waiters at this queue are blamed against.
  h->ledger.occupy(obs::LedgerKind::kQueue, ledger_queue_, tenant.value(), now,
                   now + engine_core_.scale(tx_slice_ns()));
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

void NetworkEngine::add_tenant(TenantId tenant, std::uint32_t weight) {
  PD_CHECK(tenants_.find(tenant) == tenants_.end(),
           "tenant " << tenant << " already registered with engine");
  auto& tm = host_mem_.by_tenant(tenant);

  if (kind_ != EngineKind::kCne) {
    // Cross-processor mapping: import the host pool on the DPU, then
    // register it with the RNIC (§3.4.2 steps 1-3).
    auto mmap = dpu::CrossProcessorMmap::import_export_descriptor(tm);
    PD_CHECK(mmap.rnic_registrable(),
             "tenant pool lacks RDMA export grant for DNE registration");
  } else {
    PD_CHECK(tm.exported_to_rdma(), "tenant pool lacks RDMA export grant");
  }
  rnic_.register_memory(tm.pool_id());

  tenants_.emplace(tenant, weight);
  tenant_credit_.insert(tenant, TenantCredit{});
  rbr_.add_tenant(tenant, tm.pool_id(), tm.pool().capacity());
  dwrr_.add_tenant(tenant, weight);
  recompute_credit_caps();

  fill_srq(tenant, static_cast<std::uint64_t>(config_.srq_fill));
  for (NodeId peer : peers_) {
    conn_mgr_.establish(peer, tenant, config_.rc_connections, nullptr);
  }
}

void NetworkEngine::recompute_credit_caps() {
  std::uint64_t total_weight = 0;
  for (const auto& [tenant, weight] : tenants_) total_weight += weight;
  for (const auto& [tenant, weight] : tenants_) {
    const auto share = static_cast<std::size_t>(
        total_weight == 0 ? config_.max_unacked
                          : config_.max_unacked * weight / total_weight);
    tenant_credit_.find(tenant)->cap =
        std::max(kMinTenantCredits, share);
  }
}

void NetworkEngine::connect_peer(NodeId remote) {
  PD_CHECK(remote != node(), "peer must be a different node");
  for (NodeId p : peers_) PD_CHECK(p != remote, "peer already connected");
  peers_.push_back(remote);
  for (const auto& [tenant, weight] : tenants_) {
    conn_mgr_.establish(remote, tenant, config_.rc_connections, nullptr);
  }
}

void NetworkEngine::register_local_function(FunctionId fn, TenantId tenant,
                                            sim::Core& host_core,
                                            ipc::DescriptorHandler deliver) {
  PD_CHECK(tenant_credit_.contains(tenant),
           "register function of unknown tenant " << tenant);
  PD_CHECK(local_fns_.insert(fn, &host_core) != nullptr,
           "function " << fn << " already registered");
  if (comch_) {
    comch_->connect(fn, host_core, std::move(deliver));
  } else {
    sockmap_->register_socket(fn, host_core, std::move(deliver));
  }
}

// ---------------------------------------------------------------------------
// TX path
// ---------------------------------------------------------------------------

sim::Duration NetworkEngine::ingest_cost() const {
  return comch_ ? comch_->host_enqueue_cost() : cost::kSkMsgSendNs;
}

void NetworkEngine::submit(FunctionId src, sim::Core& src_core,
                           const mem::BufferDescriptor& d, bool precharged) {
  // The function hands its ownership token to the engine along with the
  // descriptor (token passing, §3.5.1).
  pool_of(d).transfer(d, mem::actor_function(src), actor());
  if (comch_) {
    comch_->send_to_server(src, d, /*charge_host=*/!precharged);
  } else {
    sockmap_->send(kEngineSocket, d, precharged ? nullptr : &src_core);
  }
}

void NetworkEngine::on_ingest(const mem::BufferDescriptor& d) {
  // Runs on the engine core (charged by the channel). Queue under the
  // tenant and kick the TX stage.
  const TenantCredit* credit = tenant_credit_.find(d.tenant);
  PD_CHECK(credit != nullptr, "message from unknown tenant " << d.tenant);
  if (config_.tenant_admission) {
    // Tenant-scoped credit gate (ISSUE 7): occupancy counts both what the
    // tenant has queued in the scheduler and what it has in the reliability
    // window, so a tenant saturating either stage is shed individually.
    const std::size_t occupancy =
        queued_for(d.tenant) + credit->unacked;
    if (occupancy >= credit->cap) {
      ++counters_.requests_shed;
      ++counters_.shed_admission;
      if (auto* h = obs::hub()) {
        h->registry
            .counter("engine.shed_admission",
                     "node=" + std::to_string(node().value()) +
                         ",tenant=" + std::to_string(d.tenant.value()))
            .inc();
      }
      complete_with_error(d);
      return;
    }
  }
  if (unacked_.size() >= config_.max_unacked) {
    // Load shedding at admission: too many sends already await ACKs (the
    // fabric or a peer is struggling). Fail explicitly instead of letting
    // the backlog eat the buffer pool.
    ++counters_.requests_shed;
    if (auto* h = obs::hub()) {
      h->registry
          .counter("engine.requests_shed",
                   "node=" + std::to_string(node().value()))
          .inc();
    }
    complete_with_error(d);
    return;
  }
  trace_stage(d, "engine_tx");
  enqueue_tx(d);
}

void NetworkEngine::enqueue_tx(const mem::BufferDescriptor& d) {
  if (config_.use_dwrr) {
    dwrr_.enqueue(d.tenant, d);
  } else {
    fcfs_.enqueue(d.tenant, d);
  }
  ledger_queue_enter(d.tenant);
  kick_tx();
}

std::size_t NetworkEngine::tx_backlog() const {
  return config_.use_dwrr ? dwrr_.pending() : fcfs_.pending();
}

void NetworkEngine::kick_tx() {
  if (tx_busy_ || tx_backlog() == 0) return;
  tx_busy_ = true;
  tx_iteration();
}

sim::Duration NetworkEngine::tx_slice_ns() const {
  return cost::kDneSchedNs + cost::kDneTxStageNs + config_.extra_per_msg_ns;
}

void NetworkEngine::tx_iteration() {
  // One run-to-completion TX slice: scheduling decision + routing lookup +
  // WR wrap + doorbell for one queued message (§3.2). It runs only with a
  // non-empty backlog, and nothing else dequeues, so the message is still
  // there when the slice's core time has been charged.
  sim::ProfileScope scope{"engine", "tx"};
  engine_core_.submit(tx_slice_ns(), [this] {
    auto item = config_.use_dwrr ? dwrr_.dequeue() : fcfs_.dequeue();
    PD_CHECK(item.has_value(), "TX iteration with empty queues");
    ledger_queue_exit(item->tenant);
    if (kind_ == EngineKind::kDneOnPath) {
      // On-path: stage the payload through SoC memory first (slow DMA).
      const auto bytes = item->length;
      const std::uint32_t dma_span = begin_soc_dma_span(*item);
      const sim::TimePoint t0 = sched_.now();
      sim::ProfileScope dma_scope{"dma", "tx", item->tenant.value()};
      dpu_->dma().transfer(bytes, [this, d = *item, dma_span, t0] {
        end_soc_dma(dma_span, "tx", t0);
        transmit(d);
      });
    } else {
      transmit(*item);
    }
    if (tx_backlog() > 0) {
      tx_iteration();
    } else {
      tx_busy_ = false;
    }
  });
}

void NetworkEngine::transmit(const mem::BufferDescriptor& d) {
  auto bytes = pool_of(d).access(d, actor());
  MessageHeader h = read_header(bytes);
  if (!routes_.has_route(h.dst())) {
    ++counters_.drops_no_route;
    if (auto* hub = obs::hub()) {
      hub->registry
          .counter("engine.drops_no_route",
                   "node=" + std::to_string(node().value()))
          .inc();
    }
    complete_with_error(d);
    return;
  }
  const NodeId dest = routes_.lookup(h.dst());

  const std::uint64_t seq = next_seq_++;
  h.seq = seq;
  write_header(bytes, h);

  pool_of(d).transfer(d, actor(), mem::actor_rnic(node()));
  rdma::WorkRequest wr;
  wr.wr_id = seq;
  wr.opcode = rdma::Opcode::kSend;
  wr.local = d;
  UnackedMsg m;
  m.d = d;
  m.dest = dest;
  m.timer = sched_.schedule_after(config_.retransmit_timeout,
                                  [this, seq] { on_retransmit_timeout(seq); });
  unacked_.insert(seq, m);
  TenantCredit* credit = tenant_credit_.find(d.tenant);
  PD_CHECK(credit != nullptr, "transmit for unknown tenant " << d.tenant);
  ++credit->unacked;
  conn_mgr_.send(dest, d.tenant, wr);
  ++counters_.tx_msgs;
}

// ---------------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------------

void NetworkEngine::kick_rx() {
  if (rx_busy_) return;
  rx_busy_ = true;
  rx_iteration();
}

void NetworkEngine::rx_iteration() {
  const std::size_t n = rnic_.cq().poll_into(
      rx_scratch_, static_cast<std::size_t>(config_.rx_batch));
  if (n == 0) {
    rx_busy_ = false;
    return;
  }
  sim::Duration work = 0;
  for (const auto& c : rx_scratch_) {
    work += (c.is_recv ? cost::kDneRxStageNs : cost::kDneRxStageNs / 2) +
            config_.extra_per_msg_ns;
  }
  // rx_scratch_ stays untouched until this callback runs: kick_rx() bails
  // out while rx_busy_ and nothing else polls this CQ.
  sim::ProfileScope scope{"engine", "rx"};
  engine_core_.submit(work, [this] {
    for (const auto& c : rx_scratch_) {
      // One-sided completions first: handle_send_done would recycle their
      // (foreign) wr_ids as orphaned send buffers.
      if (!c.is_recv && onesided_ && onesided_(c)) continue;
      if (c.is_recv) {
        handle_recv(c);
      } else {
        handle_send_done(c);
      }
    }
    rx_iteration();
  });
}

void NetworkEngine::handle_recv(const rdma::Completion& c) {
  rbr_.on_consumed(c.tenant, c.buffer);
  auto& pool = pool_of(c.buffer);
  pool.transfer(c.buffer, mem::actor_rnic(node()), actor());

  auto bytes = pool.access(c.buffer, actor());
  MessageHeader h = read_header(bytes);
  if (h.seq != 0) {
    // Acknowledge every sequenced arrival — including duplicates, whose
    // earlier ACK may have been the thing the fabric lost.
    const NodeId sender = rnic_.qp(c.qp).remote_node();
    if (sender.valid()) {
      rnic_.network().send_datagram(
          node(), sender, rdma::Datagram{rdma::Datagram::Kind::kAck, h.seq});
      if (is_duplicate(sender, h.seq)) {
        ++counters_.dup_rx;
        pool.release(c.buffer, actor());
        return;
      }
    }
  }
  ++counters_.rx_msgs;
  if (trace_hop(h, "engine_rx", track_, sched_.now())) write_header(bytes, h);
  const FunctionId dst = h.dst();
  if (!local_fns_.contains(dst)) {
    ++counters_.drops_no_route;
    if (auto* hub = obs::hub()) {
      hub->registry
          .counter("engine.drops_no_route",
                   "node=" + std::to_string(node().value()))
          .inc();
    }
    complete_with_error(c.buffer);
    return;
  }
  if (kind_ == EngineKind::kDneOnPath) {
    // On-path: the payload was staged in SoC memory and must be DMA'd down
    // to the host pool before the function can touch it.
    const std::uint32_t dma_span = begin_soc_dma_span(c.buffer);
    const sim::TimePoint t0 = sched_.now();
    sim::ProfileScope dma_scope{"dma", "rx", c.buffer.tenant.value()};
    dpu_->dma().transfer(c.byte_len,
                         [this, buffer = c.buffer, dst, dma_span, t0] {
                           end_soc_dma(dma_span, "rx", t0);
                           deliver_local(buffer, dst);
                         });
  } else {
    deliver_local(c.buffer, dst);
  }
}

void NetworkEngine::deliver_local(const mem::BufferDescriptor& d,
                                  FunctionId dst) {
  // Ownership moves to the destination function together with the
  // descriptor.
  pool_of(d).transfer(d, actor(), mem::actor_function(dst));
  if (comch_) {
    comch_->send_to_client(dst, d);
  } else {
    sockmap_->send(dst, d, &engine_core_);
  }
}

void NetworkEngine::handle_send_done(const rdma::Completion& c) {
  // Sender side: the WR left the NIC; reclaim the buffer token from the
  // RNIC. The buffer is held until its ACK so a retransmit can re-post it
  // zero-copy.
  auto& pool = pool_of(c.buffer);
  pool.transfer(c.buffer, mem::actor_rnic(node()), actor());

  // The WR's id is the message's seq. A message's state is retired only
  // once its buffer is back from the RNIC, so it is still here.
  UnackedMsg* m = unacked_.find(c.wr_id);
  PD_CHECK(m != nullptr, "send completion for untracked WR " << c.wr_id);
  m->in_flight = false;
  switch (m->outcome) {
    case UnackedMsg::Outcome::kAcked: finish_success(c.wr_id, *m); break;
    case UnackedMsg::Outcome::kFailed: finish_failure(c.wr_id, *m); break;
    case UnackedMsg::Outcome::kPending: break;  // timer/ack will resolve it
  }
}

// ---------------------------------------------------------------------------
// Reliability: ack / timeout / retransmit / error completion
// ---------------------------------------------------------------------------

bool NetworkEngine::is_duplicate(NodeId sender, std::uint64_t seq) {
  // Window far larger than max in-flight per peer (bounded by max_unacked
  // admission): a seq falling out of it can no longer be retransmitted by a
  // live sender, so anything below the window is treated as a replay.
  constexpr std::uint64_t kBits = DedupWindow::kBits;
  DedupWindow& w = dedup_[sender];
  if (seq > w.max_seq) {
    // Seqs entering the window reuse slots of ancient ones: clear the gap.
    if (seq - w.max_seq >= kBits) {
      w.bits.fill(0);
    } else {
      for (std::uint64_t s = w.max_seq + 1; s < seq; ++s) {
        w.bits[(s & (kBits - 1)) >> 6] &= ~(std::uint64_t{1} << (s & 63));
      }
    }
    w.max_seq = seq;
    w.bits[(seq & (kBits - 1)) >> 6] |= std::uint64_t{1} << (seq & 63);
    return false;
  }
  if (w.max_seq - seq >= kBits) return true;
  std::uint64_t& word = w.bits[(seq & (kBits - 1)) >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (seq & 63);
  if (word & mask) return true;
  word |= mask;
  return false;
}

void NetworkEngine::on_datagram(NodeId /*from*/, const rdma::Datagram& dg) {
  UnackedMsg* found = unacked_.find(dg.seq);
  if (found == nullptr) return;  // late/duplicate ack for a retired seq
  UnackedMsg& m = *found;
  if (dg.kind == rdma::Datagram::Kind::kAck) {
    ++counters_.acks_rx;
    if (m.timer != sim::kInvalidEvent) {
      sched_.cancel(m.timer);
      m.timer = sim::kInvalidEvent;
    }
    if (m.in_flight) {
      m.outcome = UnackedMsg::Outcome::kAcked;
    } else {
      finish_success(dg.seq, m);
    }
    return;
  }
  // NACK: the receiver shed this message (SRQ underrun beyond its RNR
  // bound). Retrying into the same overload would make it worse — fail
  // fast and let the submitter's error path decide.
  ++counters_.nacks_rx;
  ++counters_.requests_shed;
  if (auto* h = obs::hub()) {
    h->registry
        .counter("engine.requests_shed",
                 "node=" + std::to_string(node().value()))
        .inc();
  }
  if (m.timer != sim::kInvalidEvent) {
    sched_.cancel(m.timer);
    m.timer = sim::kInvalidEvent;
  }
  if (m.in_flight) {
    m.outcome = UnackedMsg::Outcome::kFailed;
  } else {
    finish_failure(dg.seq, m);
  }
}

void NetworkEngine::on_retransmit_timeout(std::uint64_t seq) {
  UnackedMsg* found = unacked_.find(seq);
  if (found == nullptr) return;
  UnackedMsg& m = *found;
  m.timer = sim::kInvalidEvent;
  if (m.in_flight) {
    // Send completion not harvested yet (WR parked behind a pool rebuild,
    // or the CQ is backed up): check again after another timeout.
    m.timer = sched_.schedule_after(config_.retransmit_timeout,
                                    [this, seq] { on_retransmit_timeout(seq); });
    return;
  }
  if (m.attempts >= kMaxSendAttempts) {
    finish_failure(seq, m);
    return;
  }
  ++m.attempts;
  ++counters_.retransmits;
  if (auto* hub = obs::hub()) {
    hub->registry
        .counter("engine.retransmits",
                 "node=" + std::to_string(node().value()))
        .inc();
    if (m.retx_span == 0) {
      // One "retransmit" span per message covers the whole recovery tail
      // (first timeout until ACK/failure) so loss shows up as a transport
      // hop in critical-path attribution rather than as anonymous queueing.
      const MessageHeader h = read_header(pool_of(m.d).access(m.d, actor()));
      if (h.trace_id != 0) {
        m.retx_span = hub->tracer.begin_span(h.trace_id, h.root_span,
                                             "retransmit", track_,
                                             sched_.now());
      }
    }
  }
  pool_of(m.d).transfer(m.d, actor(), mem::actor_rnic(node()));
  rdma::WorkRequest wr;
  wr.wr_id = seq;
  wr.opcode = rdma::Opcode::kSend;
  wr.local = m.d;
  m.in_flight = true;
  m.timer = sched_.schedule_after(config_.retransmit_timeout,
                                  [this, seq] { on_retransmit_timeout(seq); });
  conn_mgr_.send(m.dest, m.d.tenant, wr);
}

void NetworkEngine::finish_success(std::uint64_t seq, UnackedMsg& m) {
  if (m.timer != sim::kInvalidEvent) sched_.cancel(m.timer);
  end_retransmit_span(m);
  release_tenant_credit(m.d.tenant);
  pool_of(m.d).release(m.d, actor());
  ++counters_.recycled;
  unacked_.erase(seq);
}

void NetworkEngine::finish_failure(std::uint64_t seq, UnackedMsg& m) {
  if (m.timer != sim::kInvalidEvent) sched_.cancel(m.timer);
  end_retransmit_span(m);
  release_tenant_credit(m.d.tenant);
  ++counters_.send_failures;
  const mem::BufferDescriptor d = m.d;
  unacked_.erase(seq);
  complete_with_error(d);
}

void NetworkEngine::release_tenant_credit(TenantId tenant) {
  TenantCredit* credit = tenant_credit_.find(tenant);
  if (credit != nullptr && credit->unacked > 0) --credit->unacked;
}

void NetworkEngine::complete_with_error(const mem::BufferDescriptor& d) {
  auto& pool = pool_of(d);
  auto bytes = pool.access(d, actor());
  MessageHeader h = read_header(bytes);

  // Error messages that themselves fail are terminal: nothing upstream can
  // be told, and bouncing errors back and forth would melt a faulted
  // fabric further.
  if (h.is_error()) {
    ++counters_.errors_dropped;
    pool.release(d, actor());
    return;
  }

  MessageHeader e = h;
  e.src_fn = h.dst_fn;  // the unreachable / failed destination
  e.dst_fn = h.src_fn;  // back toward the submitter
  e.flags = static_cast<std::uint16_t>(h.flags | MessageHeader::kFlagError);
  e.payload_len = 0;
  e.seq = 0;
  write_header(bytes, e);
  const auto sized = pool.resize(d, actor(), message_bytes(0));
  ++counters_.error_completions;

  if (local_fns_.contains(FunctionId{e.dst_fn})) {
    deliver_local(sized, FunctionId{e.dst_fn});
    return;
  }
  if (routes_.has_route(FunctionId{e.dst_fn})) {
    // The failed message came from a remote submitter (RX-side no-route):
    // ship the error completion back across the fabric like any message.
    enqueue_tx(sized);
    return;
  }
  ++counters_.errors_dropped;
  pool.release(sized, actor());
}

// ---------------------------------------------------------------------------
// Core thread: SRQ replenishment
// ---------------------------------------------------------------------------

void NetworkEngine::replenish_tick() {
  // Top each tenant's SRQ back up to its provisioned depth. (Posting only
  // "as many as consumed" — the literal shared-counter reading — has a
  // ratchet-down failure: a tenant whose deliveries dip to zero during a
  // burst would never be replenished again. Keeping `outstanding` pinned
  // at srq_fill is the fixpoint the paper's core thread maintains.)
  for (const auto& [tenant, weight] : tenants_) {
    (void)rbr_.take_consumed(tenant);  // reset the shared counter
    const std::uint64_t outstanding = rbr_.outstanding(tenant);
    const auto target = static_cast<std::uint64_t>(config_.srq_fill);
    if (outstanding < target) fill_srq(tenant, target - outstanding);
  }
  sched_.schedule_background_after(config_.replenish_period,
                                   [this] { replenish_tick(); });
}

void NetworkEngine::fill_srq(TenantId tenant, std::uint64_t n) {
  auto& pool = host_mem_.by_tenant(tenant).pool();
  std::uint64_t posted = 0;
  for (; posted < n; ++posted) {
    auto d = pool.allocate(mem::actor_rnic(node()));
    if (!d.has_value()) break;  // pool pressure: retry next tick
    rnic_.post_srq_recv(tenant, *d);
    rbr_.on_posted(tenant, *d);
  }
  counters_.replenished += posted;
  if (posted > 0) {
    sim::ProfileScope scope{"engine", "replenish", tenant.value()};
    engine_core_.submit(static_cast<sim::Duration>(posted) *
                        cost::kDneReplenishNs);
  }
}

// ---------------------------------------------------------------------------
// Observability (record-only: never schedules events or charges cores)
// ---------------------------------------------------------------------------

void NetworkEngine::end_retransmit_span(UnackedMsg& m) {
  if (m.retx_span == 0) return;
  if (obs::Hub* hub = obs::hub()) {
    hub->tracer.end_span(m.retx_span, sched_.now());
  }
  m.retx_span = 0;
}

void NetworkEngine::trace_stage(const mem::BufferDescriptor& d,
                                std::string_view stage) {
  if (obs::hub() == nullptr) return;
  auto bytes = pool_of(d).access(d, actor());
  MessageHeader h = read_header(bytes);
  if (trace_hop(h, stage, track_, sched_.now())) write_header(bytes, h);
}

std::uint32_t NetworkEngine::begin_soc_dma_span(const mem::BufferDescriptor& d) {
  obs::Hub* hub = obs::hub();
  if (hub == nullptr) return 0;
  const MessageHeader h = read_header(pool_of(d).access(d, actor()));
  if (h.trace_id == 0) return 0;
  // Not a baton hop: the staging copy overlaps the engine_tx/engine_rx
  // stages, so it hangs off the root as its own child slice.
  return hub->tracer.begin_span(h.trace_id, h.root_span, "soc_dma", track_,
                                sched_.now());
}

void NetworkEngine::end_soc_dma(std::uint32_t span, const char* dir,
                                sim::TimePoint begin) {
  obs::Hub* hub = obs::hub();
  if (hub == nullptr) return;
  if (span != 0) hub->tracer.end_span(span, sched_.now());
  // Always-on when a hub is attached (independent of trace sampling): this
  // histogram is what explains the off-path vs on-path gap in Fig. 11.
  hub->registry
      .histogram("dne.soc_dma_ns", std::string("dir=") + dir + ",node=" +
                                       std::to_string(node().value()))
      .record(sched_.now() - begin);
}

}  // namespace pd::core
