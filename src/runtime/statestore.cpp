#include "runtime/statestore.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "proto/cost_model.hpp"

namespace pd::runtime {

CartStateStore::CartStateStore(WorkerNode& node, std::uint32_t slots)
    : node_(node), slots_(slots) {
  PD_CHECK(slots_ > 0, "cart store needs at least one slot");
  PD_CHECK(node_.rnic() != nullptr, "cart store requires an RNIC");

  auto& tm = node_.memory().create_tenant_pool(
      kStoreTenant, "cart_store", slots_, kRecordBytes);
  tm.export_to_dpu();
  tm.export_to_rdma();
  slab_ = tm.pool_id();
  // Full remote access: the slab is exactly the kind of region one-sided
  // designs expose. Scratch pools on the client side stay kMrLocal.
  node_.rnic()->register_memory(slab_, rdma::kMrRemoteAll);

  // Pin every slot to the NIC actor (the records are NIC-owned at rest —
  // no host actor ever touches them) and seed deterministic record bytes
  // so READ-side checks are content-comparable across runs.
  const mem::Actor nic = mem::actor_rnic(node_.id());
  auto& pool = tm.pool();
  for (std::uint32_t s = 0; s < slots_; ++s) {
    auto d = pool.allocate(nic);
    PD_CHECK(d.has_value(), "cart slab slot allocation failed");
    auto span = pool.access(*d, nic);
    for (std::size_t i = 0; i < span.size(); ++i) {
      span[i] = static_cast<std::byte>((d->index * 131 + i * 7) & 0xff);
    }
  }
  // Token + version words, guarded by the slab MR: remote atomics on them
  // are honoured only while the slab grants kMrRemoteAtomic.
  for (std::uint32_t s = 0; s < slots_; ++s) {
    node_.rnic()->set_atomic_word(token_addr(s), 0, slab_);
    node_.rnic()->set_atomic_word(version_addr(s), 0, slab_);
  }
}

std::uint64_t CartStateStore::version(std::uint32_t slot) const {
  return node_.rnic()->atomic_word(version_addr(slot));
}

CartStoreClient::CartStoreClient(WorkerNode& node, CartStateStore& store)
    : node_(node),
      store_(store),
      cm_(*node.rnic()),
      token_(0xB0000000ULL + node.id().value()) {
  PD_CHECK(node_.rnic() != nullptr, "cart store client requires an RNIC");
  PD_CHECK(node_.id() != store_.node(),
           "the store node reads its slab locally — no client needed");

  auto& tm = node_.memory().create_tenant_pool(
      kScratchTenant, "cart_scratch", kScratchSlots,
      CartStateStore::kRecordBytes);
  tm.export_to_rdma();
  scratch_pool_ = tm.pool_id();
  // Local-only registration: the scratch is a READ landing zone / WRITE
  // staging area, never a legitimate one-sided target. A peer aiming a
  // one-sided op at it gets an rkey denial, not silent memory corruption.
  node_.rnic()->register_memory(scratch_pool_, rdma::kMrLocal);

  const mem::Actor nic = mem::actor_rnic(node_.id());
  auto& pool = tm.pool();
  for (std::uint32_t s = 0; s < kScratchSlots; ++s) {
    auto d = pool.allocate(nic);
    PD_CHECK(d.has_value(), "cart scratch slot allocation failed");
    scratch_.push_back(*d);
    free_scratch_.push_back(s);
  }

  // Small dedicated RC pool to the store node; handshakes drain during
  // Cluster::finish_setup alongside the engines' peer connections.
  cm_.establish(store_.node(), CartStateStore::kStoreTenant, /*count=*/2,
                nullptr);
}

void CartStoreClient::wait_on(std::uint64_t wr_id, Waiter fn) {
  PD_CHECK(waiters_.emplace(wr_id, std::move(fn)).second,
           "store wr_id " << wr_id << " reused while its waiter is parked");
}

bool CartStoreClient::on_completion(const rdma::Completion& c) {
  if ((c.wr_id & kWrTagMask) != kWrTag) return false;
  auto it = waiters_.find(c.wr_id);
  if (it == waiters_.end()) {
    // A WRITE's NIC-exit success CQE already advanced the ladder; the late
    // remote error CQE for the same wr_id only needs accounting.
    if (c.status != rdma::CompletionStatus::kSuccess) ++counters_.errors;
    return true;
  }
  Waiter fn = std::move(it->second);
  waiters_.erase(it);
  fn(c);
  return true;
}

void CartStoreClient::read_record(std::uint32_t slot, std::uint32_t bytes,
                                  StoreDone done) {
  queue_.push_back(Op{/*write=*/false, slot, bytes, std::move(done)});
  pump();
}

void CartStoreClient::update_record(std::uint32_t slot, std::uint32_t bytes,
                                    StoreDone done) {
  queue_.push_back(Op{/*write=*/true, slot, bytes, std::move(done)});
  pump();
}

void CartStoreClient::pump() {
  while (!queue_.empty() && !free_scratch_.empty()) {
    const std::uint32_t s = free_scratch_.back();
    free_scratch_.pop_back();
    Op op = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(op), s);
  }
}

void CartStoreClient::start(Op op, std::uint32_t scratch) {
  if (op.write) {
    post_acquire(std::move(op), scratch);
  } else {
    post_read(std::move(op), scratch);
  }
}

void CartStoreClient::release_scratch(std::uint32_t scratch) {
  free_scratch_.push_back(scratch);
  pump();
}

void CartStoreClient::post_read(Op op, std::uint32_t scratch) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id();
  wr.opcode = rdma::Opcode::kRead;
  wr.local = scratch_[scratch];
  wr.remote_pool = force_denial_ ? scratch_pool_ : store_.slab();
  wr.remote_index = op.slot;
  wr.read_len = std::min<std::uint32_t>(
      op.bytes, static_cast<std::uint32_t>(CartStateStore::kRecordBytes));
  wait_on(wr.wr_id,
          [this, scratch, done = std::move(op.done)](const rdma::Completion& c) {
            release_scratch(scratch);
            if (c.status != rdma::CompletionStatus::kSuccess) {
              ++counters_.errors;
              done(false);
              return;
            }
            ++counters_.reads;
            counters_.read_bytes += c.byte_len;
            done(true);
          });
  cm_.send(store_.node(), CartStateStore::kStoreTenant, wr);
}

void CartStoreClient::post_acquire(Op op, std::uint32_t scratch) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id();
  wr.opcode = rdma::Opcode::kCompareSwap;
  wr.atomic_addr = CartStateStore::token_addr(op.slot);
  wr.atomic_expect = 0;
  wr.atomic_desired = token_;
  wait_on(wr.wr_id, [this, scratch,
                     op = std::move(op)](const rdma::Completion& c) mutable {
    if (c.status != rdma::CompletionStatus::kSuccess) {
      ++counters_.errors;
      release_scratch(scratch);
      op.done(false);
      return;
    }
    if (c.atomic_found != 0) {
      // Slot token held elsewhere: deterministic backoff, then retry. The
      // scratch slot stays reserved so the retry cannot deadlock behind
      // newly queued ops.
      ++counters_.cas_conflicts;
      node_.scheduler().schedule_after(
          cost::kLockRetryBackoffNs,
          [this, scratch, op = std::move(op)]() mutable {
            post_acquire(std::move(op), scratch);
          });
      return;
    }
    ++counters_.cas_acquires;
    post_write(std::move(op), scratch);
  });
  cm_.send(store_.node(), CartStateStore::kStoreTenant, wr);
}

void CartStoreClient::post_write(Op op, std::uint32_t scratch) {
  auto& pool = node_.memory().by_pool(scratch_pool_).pool();
  const std::uint32_t len = std::min<std::uint32_t>(
      op.bytes, static_cast<std::uint32_t>(CartStateStore::kRecordBytes));
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id();
  wr.opcode = rdma::Opcode::kWrite;
  wr.local = pool.resize(scratch_[scratch], mem::actor_rnic(node_.id()), len);
  wr.remote_pool = store_.slab();
  wr.remote_index = op.slot;
  // The kWrite CQE fires at NIC exit (a remote denial would surface later
  // as a waiter-less error CQE — see on_completion); the ladder continues
  // once the WR is on the wire, matching real WRITE ordering semantics.
  wait_on(wr.wr_id, [this, scratch,
                     op = std::move(op)](const rdma::Completion& c) mutable {
    if (c.status != rdma::CompletionStatus::kSuccess) {
      ++counters_.errors;
      post_release(std::move(op), scratch, /*ok=*/false);
      return;
    }
    post_faa(std::move(op), scratch);
  });
  cm_.send(store_.node(), CartStateStore::kStoreTenant, wr);
}

void CartStoreClient::post_faa(Op op, std::uint32_t scratch) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id();
  wr.opcode = rdma::Opcode::kFetchAdd;
  wr.atomic_addr = CartStateStore::version_addr(op.slot);
  wr.atomic_desired = 1;  // addend
  wait_on(wr.wr_id, [this, scratch,
                     op = std::move(op)](const rdma::Completion& c) mutable {
    if (c.status != rdma::CompletionStatus::kSuccess) {
      ++counters_.errors;
      post_release(std::move(op), scratch, /*ok=*/false);
      return;
    }
    post_release(std::move(op), scratch, /*ok=*/true);
  });
  cm_.send(store_.node(), CartStateStore::kStoreTenant, wr);
}

void CartStoreClient::post_release(Op op, std::uint32_t scratch, bool ok) {
  rdma::WorkRequest wr;
  wr.wr_id = next_wr_id();
  wr.opcode = rdma::Opcode::kCompareSwap;
  wr.atomic_addr = CartStateStore::token_addr(op.slot);
  wr.atomic_expect = token_;
  wr.atomic_desired = 0;
  wait_on(wr.wr_id, [this, scratch, ok,
                     op = std::move(op)](const rdma::Completion& c) mutable {
    bool final_ok = ok;
    if (c.status != rdma::CompletionStatus::kSuccess) {
      ++counters_.errors;
      final_ok = false;
    } else {
      // Nobody can CAS a nonzero token word, so a held token is only ever
      // released by its holder — anything else is a protocol bug.
      PD_CHECK(c.atomic_found == token_,
               "cart slot token stolen while held (found "
                   << c.atomic_found << ", expected " << token_ << ")");
    }
    if (final_ok) ++counters_.updates;
    release_scratch(scratch);
    op.done(final_ok);
  });
  cm_.send(store_.node(), CartStateStore::kStoreTenant, wr);
}

}  // namespace pd::runtime
