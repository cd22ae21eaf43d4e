#include "core/onesided.hpp"

#include <cstring>

#include "proto/cost_model.hpp"

namespace pd::core {
namespace {

/// wr_id ranges keep write and CAS completions distinguishable.
constexpr std::uint64_t kWriteIdBase = 1'000'000'000ULL;

mem::Actor peer_actor(const rdma::Rnic& rnic) {
  return mem::actor_engine(rnic.node());
}

}  // namespace

// ===========================================================================
// TwoSidedEchoPeer
// ===========================================================================

TwoSidedEchoPeer::TwoSidedEchoPeer(sim::Core& core, rdma::Rnic& rnic,
                                   TenantId tenant, bool is_server)
    : sched_(rnic.scheduler()),
      core_(core),
      rnic_(rnic),
      tenant_(tenant),
      is_server_(is_server) {}

void TwoSidedEchoPeer::start(rdma::QueuePair& tx_qp, int srq_fill) {
  tx_qp_ = &tx_qp;
  pool_ = &rnic_.host_mem().by_tenant(tenant_).pool();
  for (int i = 0; i < srq_fill; ++i) post_one_recv();
  rnic_.cq().set_notify([this] { on_cq_event(); });
}

void TwoSidedEchoPeer::post_one_recv() {
  auto d = pool_->allocate(mem::actor_rnic(rnic_.node()));
  PD_CHECK(d.has_value(), "echo peer pool exhausted while posting receives");
  rnic_.post_srq_recv(tenant_, *d);
}

void TwoSidedEchoPeer::send_request(std::uint32_t payload_len, EchoDone done) {
  PD_CHECK(!is_server_, "server peers do not originate requests");
  const std::uint64_t id = next_id_++;
  inflight_.emplace(id, std::make_pair(sched_.now(), std::move(done)));
  send_message(id, payload_len);
}

void TwoSidedEchoPeer::send_message(std::uint64_t request_id,
                                    std::uint32_t payload_len) {
  auto d = pool_->allocate(peer_actor(rnic_));
  PD_CHECK(d.has_value(), "echo peer pool exhausted on send");
  MessageHeader h;
  h.request_id = request_id;
  h.flags = is_server_ ? MessageHeader::kFlagResponse : 0;
  h.payload_len = payload_len;
  write_header(pool_->access(*d, peer_actor(rnic_)), h);
  const auto sized =
      pool_->resize(*d, peer_actor(rnic_), message_bytes(payload_len));

  core_.submit(cost::kDneSchedNs + cost::kDneTxStageNs, [this, sized] {
    pool_->transfer(sized, peer_actor(rnic_), mem::actor_rnic(rnic_.node()));
    rdma::WorkRequest wr;
    wr.wr_id = kWriteIdBase + sized.index;
    wr.opcode = rdma::Opcode::kSend;
    wr.local = sized;
    tx_qp_->post_send(wr);
  });
}

void TwoSidedEchoPeer::on_cq_event() {
  if (busy_) return;
  busy_ = true;
  drain_cq();
}

void TwoSidedEchoPeer::drain_cq() {
  auto completions = rnic_.cq().poll(8);
  if (completions.empty()) {
    busy_ = false;
    return;
  }
  sim::Duration work = 0;
  for (const auto& c : completions) {
    work += c.is_recv ? cost::kDneRxStageNs : cost::kDneRxStageNs / 2;
  }
  core_.submit(work, [this, completions = std::move(completions)] {
    for (const auto& c : completions) {
      if (!c.is_recv) {
        // Send done: recycle the staging buffer.
        pool_->transfer(c.buffer, mem::actor_rnic(rnic_.node()),
                        peer_actor(rnic_));
        pool_->release(c.buffer, peer_actor(rnic_));
        continue;
      }
      pool_->transfer(c.buffer, mem::actor_rnic(rnic_.node()),
                      peer_actor(rnic_));
      const MessageHeader h =
          read_header(pool_->access(c.buffer, peer_actor(rnic_)));
      const std::uint32_t payload_len = h.payload_len;
      const std::uint64_t id = h.request_id;
      const bool response = h.is_response();
      pool_->release(c.buffer, peer_actor(rnic_));
      post_one_recv();

      if (is_server_) {
        PD_CHECK(!response, "server received a response");
        ++echoes_;
        send_message(id, payload_len);
      } else {
        PD_CHECK(response, "client received a request");
        auto it = inflight_.find(id);
        PD_CHECK(it != inflight_.end(), "unmatched echo response " << id);
        auto [start, done] = std::move(it->second);
        inflight_.erase(it);
        if (done) done(sched_.now() - start);
      }
    }
    drain_cq();
  });
}

// ===========================================================================
// OwrcEchoPeer
// ===========================================================================

OwrcEchoPeer::OwrcEchoPeer(sim::Core& core, rdma::Rnic& rnic, TenantId tenant,
                           bool is_server, bool cold_copy)
    : sched_(rnic.scheduler()),
      core_(core),
      rnic_(rnic),
      tenant_(tenant),
      is_server_(is_server),
      cold_copy_(cold_copy) {}

void OwrcEchoPeer::start(rdma::QueuePair& tx_qp, mem::TenantMemory& rdma_pool,
                         int slots) {
  tx_qp_ = &tx_qp;
  upool_ = &rnic_.host_mem().by_tenant(tenant_).pool();
  rdma_pool_ = &rdma_pool.pool();
  for (int i = 0; i < slots; ++i) {
    auto d = rdma_pool_->allocate(mem::actor_rnic(rnic_.node()));
    PD_CHECK(d.has_value(), "staging pool too small for slot count");
    PD_CHECK(d->index == static_cast<std::uint32_t>(i),
             "slot indices must be sequential for mirrored addressing");
    my_slots_.push_back(*d);
    free_slots_.push_back(d->index);
  }
  rnic_.set_write_monitor(rdma_pool_->id(),
                          [this](const mem::BufferDescriptor& d,
                                 std::uint32_t len) { on_write_arrival(d, len); });
  rnic_.cq().set_notify([this] { on_cq_event(); });
}

void OwrcEchoPeer::on_cq_event() {
  // Only write completions reach this peer's CQ: recycle source buffers.
  for (const auto& c : rnic_.cq().poll(16)) {
    PD_CHECK(!c.is_recv && c.opcode == rdma::Opcode::kWrite,
             "unexpected completion in OWRC");
    upool_->transfer(c.buffer, mem::actor_rnic(rnic_.node()),
                     peer_actor(rnic_));
    upool_->release(c.buffer, peer_actor(rnic_));
  }
}

void OwrcEchoPeer::send_request(std::uint32_t payload_len, EchoDone done) {
  PD_CHECK(!is_server_, "server peers do not originate requests");
  PD_CHECK(!free_slots_.empty(), "request concurrency exceeds slot count");
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t id = next_id_++;
  inflight_.emplace(id, std::make_pair(sched_.now(), std::move(done)));
  request_slot_.emplace(id, slot);
  write_message(slot, id, payload_len, /*response=*/false);
}

void OwrcEchoPeer::write_message(std::uint32_t slot_index,
                                 std::uint64_t request_id,
                                 std::uint32_t payload_len, bool response) {
  PD_CHECK(remote_pool_.valid(), "set_remote_pool not called");
  auto d = upool_->allocate(peer_actor(rnic_));
  PD_CHECK(d.has_value(), "unified pool exhausted on send");
  MessageHeader h;
  h.request_id = request_id;
  h.flags = response ? MessageHeader::kFlagResponse : 0;
  h.payload_len = payload_len;
  write_header(upool_->access(*d, peer_actor(rnic_)), h);
  const auto sized =
      upool_->resize(*d, peer_actor(rnic_), message_bytes(payload_len));

  core_.submit(cost::kDneSchedNs + cost::kDneTxStageNs, [this, sized,
                                                         slot_index] {
    upool_->transfer(sized, peer_actor(rnic_), mem::actor_rnic(rnic_.node()));
    rdma::WorkRequest wr;
    wr.wr_id = kWriteIdBase + sized.index;
    wr.opcode = rdma::Opcode::kWrite;
    wr.local = sized;
    wr.remote_pool = remote_pool_;
    wr.remote_index = slot_index;
    tx_qp_->post_send(wr);
  });
}

void OwrcEchoPeer::on_write_arrival(const mem::BufferDescriptor& slot,
                                    std::uint32_t len) {
  // FaRM-style canary polling: detection happens at the next poll tick.
  sched_.schedule_after(cost::kOneSidedPollIntervalNs / 2, [this, slot, len] {
    core_.submit(cost::kOneSidedPollWorkNs,
                 [this, slot, len] { process_arrival(slot, len); });
  });
}

void OwrcEchoPeer::process_arrival(const mem::BufferDescriptor& slot,
                                   std::uint32_t len) {
  // The receiver-side copy out of the staging pool into the unified pool —
  // the cost that undermines OWRC's zero-copy claim (Fig. 2 (2)).
  const double per_byte =
      cold_copy_ ? cost::kCopyColdPerByteNs : cost::kCopyHotPerByteNs;
  const auto copy_ns =
      cost::kCopyBaseNs +
      static_cast<sim::Duration>(static_cast<double>(len) * per_byte);

  core_.submit(copy_ns + cost::kDneRxStageNs, [this, slot, len] {
    // Borrow the slot, copy, return it for the next inbound write.
    rdma_pool_->transfer(slot, mem::actor_rnic(rnic_.node()),
                         peer_actor(rnic_));
    auto local = upool_->allocate(peer_actor(rnic_));
    PD_CHECK(local.has_value(), "unified pool exhausted on receive copy");
    auto src = rdma_pool_->access(slot, peer_actor(rnic_));
    auto dst = upool_->access(*local, peer_actor(rnic_));
    std::memcpy(dst.data(), src.data(), len);
    rdma_pool_->transfer(slot, peer_actor(rnic_),
                         mem::actor_rnic(rnic_.node()));

    const MessageHeader h = read_header(upool_->access(*local, peer_actor(rnic_)));
    const std::uint64_t id = h.request_id;
    const std::uint32_t payload_len = h.payload_len;
    const bool response = h.is_response();
    upool_->release(*local, peer_actor(rnic_));

    if (is_server_) {
      PD_CHECK(!response, "server received a response");
      ++echoes_;
      // Echo back into the client's mirrored slot.
      write_message(slot.index, id, payload_len, /*response=*/true);
    } else {
      PD_CHECK(response, "client received a request");
      auto it = inflight_.find(id);
      PD_CHECK(it != inflight_.end(), "unmatched OWRC response " << id);
      auto [start, done] = std::move(it->second);
      inflight_.erase(it);
      free_slots_.push_back(request_slot_.at(id));
      request_slot_.erase(id);
      if (done) done(sched_.now() - start);
    }
  });
}

// ===========================================================================
// OwdlEchoPeer
// ===========================================================================

OwdlEchoPeer::OwdlEchoPeer(sim::Core& core, rdma::Rnic& rnic, TenantId tenant,
                           bool is_server)
    : sched_(rnic.scheduler()),
      core_(core),
      rnic_(rnic),
      tenant_(tenant),
      is_server_(is_server) {}

void OwdlEchoPeer::start(rdma::QueuePair& tx_qp, int slots) {
  tx_qp_ = &tx_qp;
  upool_ = &rnic_.host_mem().by_tenant(tenant_).pool();
  for (int i = 0; i < slots; ++i) {
    auto d = upool_->allocate(mem::actor_rnic(rnic_.node()));
    PD_CHECK(d.has_value(), "unified pool too small for slot count");
    my_slots_.push_back(*d);
    free_slots_.push_back(d->index);
    rnic_.set_atomic_word(lock_addr(d->index), 0);
  }
  rnic_.set_write_monitor(upool_->id(),
                          [this](const mem::BufferDescriptor& d,
                                 std::uint32_t len) { on_write_arrival(d, len); });
  rnic_.cq().set_notify([this] { on_cq_event(); });
}

void OwdlEchoPeer::on_cq_event() { drain_cq(); }

void OwdlEchoPeer::insert_waiter(
    std::uint64_t id, std::function<void(std::uint64_t found)> fn) {
  PD_CHECK(completion_waiters_.emplace(id, std::move(fn)).second,
           "wr_id " << id << " reused while its waiter is still parked");
}

void OwdlEchoPeer::drain_cq() {
  // Each harvested completion (lock grant, write done, unlock ack) costs
  // the engine core CQ-polling work — three WRs per transfer instead of
  // the two-sided design's one is OWDL's hidden CPU tax.
  for (const auto& c : rnic_.cq().poll(16)) {
    PD_CHECK(!c.is_recv, "unexpected recv completion in OWDL");
    auto it = completion_waiters_.find(c.wr_id);
    PD_CHECK(it != completion_waiters_.end(),
             "completion with no waiter: " << c.wr_id);
    auto fn = std::move(it->second);
    completion_waiters_.erase(it);
    core_.submit(cost::kDneRxStageNs / 2,
                 [fn = std::move(fn), found = c.atomic_found] { fn(found); });
  }
}

void OwdlEchoPeer::send_request(std::uint32_t payload_len, EchoDone done) {
  PD_CHECK(!is_server_, "server peers do not originate requests");
  PD_CHECK(!free_slots_.empty(), "request concurrency exceeds slot count");
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t id = next_id_++;
  inflight_.emplace(id, std::make_pair(sched_.now(), std::move(done)));
  request_slot_.emplace(id, slot);
  acquire_lock_then_write(slot, id, payload_len, /*response=*/false);
}

void OwdlEchoPeer::acquire_lock_then_write(std::uint32_t slot_index,
                                           std::uint64_t request_id,
                                           std::uint32_t payload_len,
                                           bool response) {
  const std::uint64_t cas_id = owdl_cas_wr_id(next_cas_++);
  insert_waiter(cas_id, [this, slot_index, request_id, payload_len,
                         response](std::uint64_t found) {
    if (found == 0) {
      write_and_unlock(slot_index, request_id, payload_len, response);
      return;
    }
    sched_.schedule_after(cost::kLockRetryBackoffNs,
                          [this, slot_index, request_id, payload_len, response] {
                            acquire_lock_then_write(slot_index, request_id,
                                                    payload_len, response);
                          });
  });
  core_.submit(cost::kDneTxStageNs / 2, [this, cas_id, slot_index] {
    rdma::WorkRequest wr;
    wr.wr_id = cas_id;
    wr.opcode = rdma::Opcode::kCompareSwap;
    wr.atomic_addr = lock_addr(slot_index);
    wr.atomic_expect = 0;
    wr.atomic_desired = 1;
    tx_qp_->post_send(wr);
  });
}

void OwdlEchoPeer::write_and_unlock(std::uint32_t slot_index,
                                    std::uint64_t request_id,
                                    std::uint32_t payload_len, bool response) {
  auto d = upool_->allocate(peer_actor(rnic_));
  PD_CHECK(d.has_value(), "unified pool exhausted on send");
  MessageHeader h;
  h.request_id = request_id;
  h.flags = response ? MessageHeader::kFlagResponse : 0;
  h.payload_len = payload_len;
  write_header(upool_->access(*d, peer_actor(rnic_)), h);
  const auto sized =
      upool_->resize(*d, peer_actor(rnic_), message_bytes(payload_len));

  const std::uint64_t write_id = owdl_write_wr_id(next_write_++);
  insert_waiter(write_id, [this, sized, slot_index](std::uint64_t) {
    // Write is on the wire: recycle the source buffer and release the lock
    // (RC ordering guarantees the unlock lands after the payload).
    upool_->transfer(sized, mem::actor_rnic(rnic_.node()), peer_actor(rnic_));
    upool_->release(sized, peer_actor(rnic_));
    const std::uint64_t unlock_id = owdl_unlock_wr_id(next_unlock_++);
    insert_waiter(unlock_id, [](std::uint64_t found) {
      PD_CHECK(found == 1, "unlock found lock not held");
    });
    core_.submit(cost::kDneTxStageNs / 2, [this, slot_index, unlock_id] {
      rdma::WorkRequest unlock;
      unlock.wr_id = unlock_id;
      unlock.opcode = rdma::Opcode::kCompareSwap;
      unlock.atomic_addr = lock_addr(slot_index);
      unlock.atomic_expect = 1;
      unlock.atomic_desired = 0;
      tx_qp_->post_send(unlock);
    });
  });

  core_.submit(cost::kDneSchedNs + cost::kDneTxStageNs, [this, sized,
                                                         slot_index,
                                                         write_id] {
    upool_->transfer(sized, peer_actor(rnic_), mem::actor_rnic(rnic_.node()));
    rdma::WorkRequest wr;
    wr.wr_id = write_id;
    wr.opcode = rdma::Opcode::kWrite;
    wr.local = sized;
    wr.remote_pool = remote_pool_;
    wr.remote_index = slot_index;
    tx_qp_->post_send(wr);
  });
}

void OwdlEchoPeer::on_write_arrival(const mem::BufferDescriptor& slot,
                                    std::uint32_t len) {
  await_unlock(slot, len);
}

void OwdlEchoPeer::await_unlock(const mem::BufferDescriptor& slot,
                                std::uint32_t len) {
  // Receiver-side polling: data visible, but the sender's lock must clear
  // before local processing may touch the buffer.
  sched_.schedule_after(cost::kOneSidedPollIntervalNs / 2, [this, slot, len] {
    core_.submit(cost::kOneSidedPollWorkNs, [this, slot, len] {
      if (rnic_.atomic_word(lock_addr(slot.index)) != 0) {
        sched_.schedule_after(cost::kOneSidedPollIntervalNs,
                              [this, slot, len] { await_unlock(slot, len); });
        return;
      }
      process_arrival(slot, len);
    });
  });
}

void OwdlEchoPeer::process_arrival(const mem::BufferDescriptor& slot,
                                   std::uint32_t len) {
  core_.submit(cost::kDneRxStageNs, [this, slot, len] {
    (void)len;
    // Take ownership for local processing (the lock protocol guarantees
    // the remote writer is done), then hand it back before replying.
    upool_->transfer(slot, mem::actor_rnic(rnic_.node()), peer_actor(rnic_));
    const MessageHeader h = read_header(upool_->access(slot, peer_actor(rnic_)));
    const std::uint64_t id = h.request_id;
    const std::uint32_t payload_len = h.payload_len;
    const bool response = h.is_response();
    upool_->transfer(slot, peer_actor(rnic_), mem::actor_rnic(rnic_.node()));

    if (is_server_) {
      PD_CHECK(!response, "server received a response");
      ++echoes_;
      acquire_lock_then_write(slot.index, id, payload_len, /*response=*/true);
    } else {
      PD_CHECK(response, "client received a request");
      auto it = inflight_.find(id);
      PD_CHECK(it != inflight_.end(), "unmatched OWDL response " << id);
      auto [start, done] = std::move(it->second);
      inflight_.erase(it);
      free_slots_.push_back(request_slot_.at(id));
      request_slot_.erase(id);
      if (done) done(sched_.now() - start);
    }
  });
}

}  // namespace pd::core
