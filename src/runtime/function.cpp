#include "runtime/function.hpp"

#include <algorithm>

#include "core/message.hpp"
#include "core/trace_hooks.hpp"
#include "proto/cost_model.hpp"
#include "runtime/statestore.hpp"
#include "sim/profile.hpp"

namespace pd::runtime {

FunctionInstance::FunctionInstance(WorkerNode& node, FunctionSpec spec,
                                   sim::Core& core)
    : node_(node),
      spec_(std::move(spec)),
      core_(core),
      span_name_("fn:" + spec_.name),
      track_("node" + std::to_string(node_.id().value()) + "/fn") {
  replicas_.push_back(&core_);
}

void FunctionInstance::add_replica(sim::Core& core) {
  for (sim::Core* c : replicas_) {
    PD_CHECK(c != &core, "replica core added twice");
  }
  replicas_.push_back(&core);
}

void FunctionInstance::set_active_replicas(std::size_t n) {
  active_ = std::min(std::max<std::size_t>(n, 1), replicas_.size());
}

void FunctionInstance::on_message(const mem::BufferDescriptor& d) {
  ++invocations_;
  auto& pool = node_.memory().by_pool(d.pool).pool();
  auto bytes = pool.access(d, actor());
  core::MessageHeader h = core::read_header(bytes);
  if (core::trace_hop(h, span_name_, track_, node_.scheduler().now())) {
    core::write_header(bytes, h);
  }
  PD_CHECK(h.dst() == spec_.id,
           "message for " << h.dst() << " delivered to " << spec_.id);
  PD_CHECK(d.tenant == spec_.tenant, "cross-tenant message delivery blocked");

  if (h.is_error()) {
    // The engine failed one of our sends (no route, retries exhausted, or
    // shed under overload). Propagate an explicit error response to the
    // requester so the invocation fails visibly instead of hanging. If the
    // error response itself cannot make it back, the engine drops it
    // terminally — no error ping-pong.
    const FunctionId client{h.client_id};
    if (h.client_id == 0 || client == spec_.id) {
      pool.release(d, actor());
      return;
    }
    core::MessageHeader e = h;
    e.src_fn = spec_.id.value();
    e.dst_fn = h.client_id;
    e.flags = core::MessageHeader::kFlagResponse | core::MessageHeader::kFlagError;
    e.payload_len = 0;
    e.seq = 0;
    core::write_header(bytes, e);
    const auto sized = pool.resize(d, actor(), core::message_bytes(0));
    sim::ProfileScope scope{"fn", spec_.name, spec_.tenant.value()};
    core_.submit(node_.cluster().send_cost(node_.id(), client),
                 [this, sized] {
                   node_.cluster().io_send(spec_.id, node_.id(), core_, sized,
                                           /*precharged=*/true);
                 });
    return;
  }

  const Chain& chain = node_.cluster().chains().by_id(h.chain_id);
  PD_CHECK(h.hop_index < chain.hops.size(), "hop index out of range");
  const ChainHop& hop = chain.hops[h.hop_index];
  PD_CHECK(hop.fn == spec_.id, "chain hop/function mismatch");

  // Run-to-completion per message (like the real function runtime's event
  // loop): application compute plus the outbound I/O-library / sidecar /
  // channel-enqueue work are one uninterruptible job on this core. Charging
  // them separately would let the next request's compute slip in between
  // and head-of-line-block this response.
  const bool last_hop = std::size_t{h.hop_index} + 1 == chain.hops.size();
  const FunctionId next_dst =
      last_hop ? FunctionId{h.client_id} : chain.hops[h.hop_index + 1].fn;
  const sim::Duration compute = node_.jittered(hop.compute_ns);
  compute_total_ += compute;
  // Round-robin over the active replicas: deterministic (cursor state lives
  // on this instance, all deliveries arrive on the owning shard) and enough
  // to spread a hot function's compute once the autoscaler widens it.
  sim::Core& exec = *replicas_[rr_ % active_];
  ++rr_;
  ++inflight_;
  sim::ProfileScope scope{"fn", spec_.name, spec_.tenant.value()};

  // ISSUE 8: when the next hop is a state-store visit and this node holds
  // a store client, skip the RPC entirely — after this hop's compute the
  // runtime posts one-sided verbs against the store slab instead of
  // sending to the state service. kStorePostNs (descriptor packing +
  // doorbell) replaces the whole send path.
  if (!last_hop &&
      chain.hops[h.hop_index + 1].store_op != StoreOp::kNone &&
      node_.cluster().cart_client(node_.id()) != nullptr) {
    exec.submit(compute + cost::kStorePostNs, [this, d] {
      --inflight_;
      store_advance(d);
    });
    return;
  }

  exec.submit(compute + node_.cluster().send_cost(node_.id(), next_dst),
              [this, d] {
                --inflight_;
                advance_chain(d);
              });
}

void FunctionInstance::store_advance(const mem::BufferDescriptor& d) {
  auto& pool = node_.memory().by_pool(d.pool).pool();
  auto bytes = pool.access(d, actor());
  core::MessageHeader h = core::read_header(bytes);
  const Chain& chain = node_.cluster().chains().by_id(h.chain_id);
  // Sandwich invariant: the store hop must have a successor, and that
  // successor must be this same function — the store op stands in for the
  // service's reply, so somebody must be here to consume it.
  PD_CHECK(std::size_t{h.hop_index} + 2 < chain.hops.size(),
           "store hop cannot be the chain's terminal hop");
  PD_CHECK(chain.hops[h.hop_index + 2].fn == spec_.id,
           "store hop not sandwiched by " << spec_.name);
  const ChainHop& store_hop = chain.hops[h.hop_index + 1];

  const char* span =
      store_hop.store_op == StoreOp::kRead ? "rdma_read" : "rdma_cas";
  if (core::trace_hop(h, span, track_, node_.scheduler().now())) {
    core::write_header(bytes, h);
  }

  ++store_ops_;
  CartStoreClient& client = *node_.cluster().cart_client(node_.id());
  const std::uint32_t slot = client.slot_for(h.request_id);
  auto cont = [this, d](bool ok) { store_finish(d, ok); };
  if (store_hop.store_op == StoreOp::kRead) {
    client.read_record(slot, store_hop.out_payload, std::move(cont));
  } else {
    client.update_record(slot, store_hop.out_payload, std::move(cont));
  }
}

void FunctionInstance::store_finish(const mem::BufferDescriptor& d, bool ok) {
  auto& pool = node_.memory().by_pool(d.pool).pool();
  auto bytes = pool.access(d, actor());
  core::MessageHeader h = core::read_header(bytes);
  const Chain& chain = node_.cluster().chains().by_id(h.chain_id);
  const ChainHop& store_hop = chain.hops[h.hop_index + 1];

  if (!ok) {
    // Remote access denied (rkey revoked / store unmapped): fall back to
    // the two-sided RPC the store op replaced, so the request completes
    // either way. The send cost skipped in on_message is charged now.
    ++store_fallbacks_;
    if (core::trace_hop(h, "rdma_denied", track_, node_.scheduler().now())) {
      core::write_header(bytes, h);
    }
    sim::ProfileScope scope{"fn", spec_.name, spec_.tenant.value()};
    core_.submit(node_.cluster().send_cost(node_.id(), store_hop.fn),
                 [this, d] { advance_chain(d); });
    return;
  }

  // The one-sided op stood in for the state service's reply: advance the
  // header two hops as if the service answered, then re-enter the event
  // loop for this function's next visit after the record decode cost.
  h.src_fn = store_hop.fn.value();
  h.dst_fn = spec_.id.value();
  h.payload_len = store_hop.out_payload;
  h.hop_index = static_cast<std::uint16_t>(h.hop_index + 2);
  core::write_header(bytes, h);
  const auto sized =
      pool.resize(d, actor(), core::message_bytes(store_hop.out_payload));
  sim::ProfileScope scope{"fn", spec_.name, spec_.tenant.value()};
  core_.submit(cost::kStoreDecodeNs, [this, sized] { on_message(sized); });
}

void FunctionInstance::advance_chain(const mem::BufferDescriptor& d) {
  auto& pool = node_.memory().by_pool(d.pool).pool();
  core::MessageHeader h = core::read_header(pool.access(d, actor()));
  const Chain& chain = node_.cluster().chains().by_id(h.chain_id);
  const ChainHop& hop = chain.hops[h.hop_index];
  const bool last_hop = std::size_t{h.hop_index} + 1 == chain.hops.size();

  // Zero-copy: reuse the same buffer for the outbound message — only the
  // header is rewritten and the length adjusted.
  h.src_fn = spec_.id.value();
  h.payload_len = hop.out_payload;
  if (last_hop) {
    h.dst_fn = h.client_id;  // respond to the entry point
    h.flags |= core::MessageHeader::kFlagResponse;
  } else {
    h.dst_fn = chain.hops[h.hop_index + 1].fn.value();
  }
  h.hop_index = static_cast<std::uint16_t>(h.hop_index + 1);

  core::write_header(pool.access(d, actor()), h);
  const auto sized =
      pool.resize(d, actor(), core::message_bytes(hop.out_payload));
  node_.cluster().io_send(spec_.id, node_.id(), core_, sized,
                          /*precharged=*/true);
}

}  // namespace pd::runtime
