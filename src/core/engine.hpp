// Palladium's network engine: the node-wide reverse proxy that owns the
// RDMA resources on behalf of tenant functions (§3.1–§3.5).
//
// Three build flavours share this implementation:
//  - kDneOffPath — the paper's DNE: runs on a wimpy DPU core, reaches
//    tenant buffers through cross-processor shared memory (off-path), and
//    talks to host functions over Comch-E.
//  - kDneOnPath  — ablation for Fig. 11: also on the DPU, but stages every
//    payload through SoC memory with the slow SoC DMA engine.
//  - kCne        — apples-to-apples CPU variant (§4.3): same logic on a
//    host core, SK_MSG instead of Comch.
//
// Data plane: a non-blocking run-to-completion loop (§3.2). Each TX slice
// takes one descriptor from the tenant queues under DWRR (§3.3), resolves
// the destination node, and posts a two-sided SEND on the least-congested
// RC connection. RX polls CQEs, resolves the destination function via the
// receive-buffer registry and message header, and forwards descriptors
// over the cross-processor channel. A core-thread task replenishes each
// tenant's shared RQ to match consumption (§3.5.2).
//
// No per-message step hashes: function, peer-node and per-tenant credit
// state sit in IdTables indexed by the id itself, and the reliability
// window is a SeqRing indexed by seq, so a CQE's wr_id and an ACK's seq
// lead straight to their message's state.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id_table.hpp"
#include "core/dataplane.hpp"
#include "core/dwrr.hpp"
#include "core/message.hpp"
#include "core/rbr.hpp"
#include "core/routing.hpp"
#include "core/seq_ring.hpp"
#include "dpu/comch.hpp"
#include "dpu/dpu.hpp"
#include "ipc/skmsg.hpp"
#include "rdma/connection.hpp"

namespace pd::core {

enum class EngineKind : std::uint8_t { kDneOffPath, kDneOnPath, kCne };

const char* to_string(EngineKind kind);

struct EngineConfig {
  /// DWRR (true) or FCFS (false) tenant scheduling — Fig. 15's contrast.
  bool use_dwrr = true;
  /// Extra per-message work on the engine core, for experiments that pin
  /// the engine's capacity to a target rate (§4.2 configures ~110K RPS).
  sim::Duration extra_per_msg_ns = 0;
  /// Receive buffers kept posted per tenant SRQ.
  int srq_fill = 64;
  /// Pre-established RC connections per (peer node, tenant).
  int rc_connections = 2;
  /// Core-thread replenish period.
  sim::Duration replenish_period = 20'000;  // 20 µs
  /// CQEs drained per RX iteration (batching in the event loop).
  int rx_batch = 8;
  /// Cap on simultaneously active (RNIC-cache-resident) QPs; shadow QPs
  /// beyond this stay inactive until needed (§3.3 / [52]).
  int max_active_qps = cost::kRnicQpCacheSlots;

  // --- reliability (per-message ack/timeout/retransmit) --------------------
  /// Retransmit timeout per message (every message is sequenced and held
  /// until its ACK); must be positive.
  sim::Duration retransmit_timeout = 100'000;  // 100 µs
  /// Admission cap: once this many sequenced messages await ACKs, new
  /// ingest is shed with an error completion instead of queued (explicit
  /// back-pressure rather than silent loss under pool exhaustion).
  std::size_t max_unacked = 512;

  // --- per-tenant admission (ISSUE 7: tenant-scoped credit gate) -----------
  /// Partition `max_unacked` into per-tenant credit caps proportional to
  /// DWRR weights: a tenant whose queued + unacked occupancy reaches its
  /// cap is shed individually (explicit error completion) instead of
  /// letting one aggressor exhaust the node-wide window for everyone.
  /// Requires use_dwrr (per-tenant queue depths are meaningless under the
  /// FCFS baseline).
  bool tenant_admission = false;
};

struct EngineCounters {
  std::uint64_t tx_msgs = 0;
  std::uint64_t rx_msgs = 0;
  std::uint64_t recycled = 0;
  std::uint64_t replenished = 0;
  std::uint64_t drops_no_route = 0;
  // Reliability layer.
  std::uint64_t retransmits = 0;       ///< timeout-driven re-sends
  std::uint64_t acks_rx = 0;           ///< ACK datagrams consumed
  std::uint64_t nacks_rx = 0;          ///< NACK datagrams (receiver shed us)
  std::uint64_t dup_rx = 0;            ///< duplicate deliveries suppressed
  std::uint64_t send_failures = 0;     ///< messages failed after retries/NACK
  std::uint64_t requests_shed = 0;     ///< ingest shed at the admission cap
  std::uint64_t shed_admission = 0;    ///< subset shed by the per-tenant gate
  std::uint64_t error_completions = 0; ///< explicit error completions emitted
  std::uint64_t errors_dropped = 0;    ///< terminal errors with no way back
};

class NetworkEngine : public DataPlane {
 public:
  /// `engine_core`: the DPU core (kDne*) or host core (kCne) running the
  /// worker loop. `dpu` required for kDneOnPath (SoC DMA) and used for
  /// Comch by both DNE flavours; pass nullptr for kCne.
  NetworkEngine(sim::Scheduler& sched, EngineKind kind, EngineConfig config,
                sim::Core& engine_core, rdma::Rnic& rnic,
                mem::MemoryDomain& host_mem, dpu::Dpu* dpu);

  NetworkEngine(const NetworkEngine&) = delete;
  NetworkEngine& operator=(const NetworkEngine&) = delete;

  // --- control plane -------------------------------------------------------

  /// Register a tenant (weight used by DWRR). Imports its memory pool
  /// cross-processor, registers it with the RNIC, fills its SRQ, and
  /// establishes RC connections to all known peers.
  void add_tenant(TenantId tenant, std::uint32_t weight) override;

  /// Make `remote` reachable (establishes per-tenant RC connection pools).
  void connect_peer(NodeId remote) override;

  /// Register a local function: `deliver` runs on `host_core` when a
  /// message for `fn` arrives from the fabric.
  void register_local_function(FunctionId fn, TenantId tenant,
                               sim::Core& host_core,
                               ipc::DescriptorHandler deliver) override;

  /// Coordinator-synchronized placement of remote functions.
  InterNodeRoutingTable& routes() override { return routes_; }

  // --- data plane (called from the function runtime / ingress) ------------

  /// Hand a message to the engine for inter-node transmission. The caller
  /// (function `src` on `src_core`) must have written the MessageHeader
  /// and must still own the buffer; ownership moves to the engine here.
  void submit(FunctionId src, sim::Core& src_core,
              const mem::BufferDescriptor& d,
              bool precharged = false) override;

  [[nodiscard]] sim::Duration ingest_cost() const override;

  // --- introspection -------------------------------------------------------

  [[nodiscard]] EngineKind kind() const { return kind_; }
  [[nodiscard]] NodeId node() const override { return rnic_.node(); }
  [[nodiscard]] sim::Core& core() { return engine_core_; }
  [[nodiscard]] const EngineCounters& counters() const { return counters_; }
  [[nodiscard]] rdma::ConnectionManager& connections() { return conn_mgr_; }
  [[nodiscard]] std::size_t tx_backlog() const;
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// Sequenced messages awaiting ACK (the reliability window occupancy;
  /// headroom against config().max_unacked is a flight-recorder series).
  [[nodiscard]] std::size_t unacked_count() const { return unacked_.size(); }
  /// Messages queued in the tenant scheduler for `t` (DWRR or FCFS — the
  /// FCFS baseline has no per-tenant split, so it reports its whole queue).
  [[nodiscard]] std::size_t queued_for(TenantId t) const {
    return config_.use_dwrr ? dwrr_.pending_for(t) : fcfs_.pending();
  }
  /// Current DWRR deficit credit for `t` (0 under FCFS).
  [[nodiscard]] std::uint64_t dwrr_deficit(TenantId t) const {
    return config_.use_dwrr ? dwrr_.deficit_of(t) : 0;
  }
  /// Sequenced messages of tenant `t` awaiting ACK.
  [[nodiscard]] std::size_t tenant_unacked(TenantId t) const {
    const TenantCredit* credit = tenant_credit_.find(t);
    return credit == nullptr ? 0 : credit->unacked;
  }
  [[nodiscard]] mem::Actor actor() const {
    return mem::actor_engine(rnic_.node());
  }

  /// Interception hook for one-sided completions (READ/CAS/FAA and the
  /// store client's tagged WRITEs). The engine is the sole CQ consumer on a
  /// cluster node, and handle_send_done takes every other send completion's
  /// wr_id for a message seq — so a one-sided user on the same node MUST
  /// claim its completions here. Return true to consume the completion.
  using OneSidedHandler = std::function<bool(const rdma::Completion&)>;
  void set_onesided_handler(OneSidedHandler handler) {
    onesided_ = std::move(handler);
  }

 private:
  /// Per-tenant admission state, read and written per message.
  struct TenantCredit {
    /// Weight-proportional share of max_unacked (see tenant_admission).
    std::size_t cap = 0;
    /// Sequenced messages of the tenant awaiting ACK (its slice of
    /// unacked_).
    std::size_t unacked = 0;
  };

  void recompute_credit_caps();

  void on_ingest(const mem::BufferDescriptor& d);
  /// Queue `d` under its tenant (DWRR or FCFS) and kick the TX stage.
  void enqueue_tx(const mem::BufferDescriptor& d);
  void kick_tx();
  /// Engine-core work of one TX slice (one message).
  [[nodiscard]] sim::Duration tx_slice_ns() const;
  void tx_iteration();
  void transmit(const mem::BufferDescriptor& d);
  void kick_rx();
  void rx_iteration();
  void handle_recv(const rdma::Completion& c);
  void handle_send_done(const rdma::Completion& c);
  void deliver_local(const mem::BufferDescriptor& d, FunctionId dst);
  void replenish_tick();
  void fill_srq(TenantId tenant, std::uint64_t n);

  // --- reliability ---------------------------------------------------------

  /// Sender-side state of a sequenced message awaiting its ACK. The engine
  /// keeps the buffer (zero-copy retransmit: the payload never moves) until
  /// the receiver acknowledges or the message is declared failed. Every
  /// send of the message posts wr_id = seq: a retransmit waits for the
  /// previous send completion, so at most one WR per message is
  /// outstanding, and the state is retired only while no WR is.
  struct UnackedMsg {
    mem::BufferDescriptor d;
    NodeId dest;
    int attempts = 1;
    sim::EventId timer = sim::kInvalidEvent;
    /// Buffer currently owned by the RNIC (send completion not harvested).
    bool in_flight = true;
    enum class Outcome : std::uint8_t { kPending, kAcked, kFailed };
    Outcome outcome = Outcome::kPending;
    /// Open "retransmit" span covering loss recovery (0 = none/untraced).
    std::uint32_t retx_span = 0;
  };

  void on_datagram(NodeId from, const rdma::Datagram& dg);
  void on_retransmit_timeout(std::uint64_t seq);
  void release_tenant_credit(TenantId tenant);
  void finish_success(std::uint64_t seq, UnackedMsg& m);
  void finish_failure(std::uint64_t seq, UnackedMsg& m);
  /// Turn an undeliverable/failed message (buffer owned by the engine) into
  /// an explicit error completion routed back toward its submitter — local
  /// delivery, or back over the fabric for messages that arrived from a
  /// remote engine. Error messages that themselves fail are dropped
  /// terminally (no error storms).
  void complete_with_error(const mem::BufferDescriptor& d);
  [[nodiscard]] bool is_duplicate(NodeId sender, std::uint64_t seq);

  // --- observability (no-ops when no obs::Hub is installed) ----------------

  /// Baton hop: end the span the message arrived with, open `stage` on this
  /// engine's track, and write the updated header back into the buffer.
  void trace_stage(const mem::BufferDescriptor& d, std::string_view stage);
  /// Close the message's "retransmit" recovery span, if one is open.
  void end_retransmit_span(UnackedMsg& m);
  /// Open a "soc_dma" span for the staging copy of `d` (0 when unsampled).
  std::uint32_t begin_soc_dma_span(const mem::BufferDescriptor& d);
  /// Close the staging span and record the copy's duration into the
  /// always-on `dne.soc_dma_ns{dir=...,node=...}` histogram.
  void end_soc_dma(std::uint32_t span, const char* dir, sim::TimePoint begin);
  /// Resource-ledger queue-wait bracketing (ISSUE 10): enter when a message
  /// joins the DWRR/FCFS scheduler, exit when it is dequeued for a TX slice
  /// (also recording the slice's service segment, the evidence later
  /// waiters are blamed against).
  void ledger_queue_enter(TenantId tenant);
  void ledger_queue_exit(TenantId tenant);

  mem::BufferPool& pool_of(const mem::BufferDescriptor& d);

  sim::Scheduler& sched_;
  EngineKind kind_;
  EngineConfig config_;
  sim::Core& engine_core_;
  rdma::Rnic& rnic_;
  mem::MemoryDomain& host_mem_;
  dpu::Dpu* dpu_;
  rdma::ConnectionManager conn_mgr_;

  InterNodeRoutingTable routes_;
  ReceiveBufferRegistry rbr_;
  DwrrScheduler<mem::BufferDescriptor> dwrr_;
  FcfsScheduler<mem::BufferDescriptor> fcfs_;
  /// Registered tenants -> DWRR weight. Stays a hash map, used only off
  /// the per-message path: connect_peer and replenish_tick visit it, and
  /// that order reaches the model (QP creation order, replenish job
  /// boundaries, RNR redelivery order; ablation_dne's 96-tenant point
  /// moves under any other order).
  std::unordered_map<TenantId, std::uint32_t> tenants_;
  /// Every registered tenant's credit state.
  IdTable<TenantId, TenantCredit> tenant_credit_;
  std::vector<NodeId> peers_;

  /// DNE flavours: the Comch server towards host functions.
  std::unique_ptr<dpu::ComchServer> comch_;
  /// CNE: SK_MSG sockets towards host functions.
  std::unique_ptr<ipc::SockMap> sockmap_;
  /// Local delivery endpoints (needed for both flavours' bookkeeping).
  IdTable<FunctionId, sim::Core*> local_fns_;

  /// Trace display row for this engine's spans, e.g. "node1/dne".
  std::string track_;
  /// Ledger resource name of the TX scheduler queue, e.g. "node1/dne/txq".
  std::string ledger_queue_;

  bool tx_busy_ = false;
  bool rx_busy_ = false;
  /// RX poll scratch, reused across iterations (only one RX batch is in
  /// flight at a time — see rx_busy_).
  std::vector<rdma::Completion> rx_scratch_;
  OneSidedHandler onesided_;
  EngineCounters counters_;

  // Reliability state. Seqs are dense per engine, so the window of
  // messages awaiting ACK is indexed by seq (wr_id of their WRs, seq of
  // their ACK/NACK), never hashed.
  SeqRing<UnackedMsg> unacked_;
  std::uint64_t next_seq_ = 1;
  /// Receiver-side duplicate suppression, per sender node: a circular
  /// bitmap over the last kBits sequence numbers ending at max_seq. O(1)
  /// and allocation-free per arrival (a set+deque window costs several
  /// hash ops per message).
  struct DedupWindow {
    static constexpr std::uint64_t kBits = 4096;
    std::uint64_t max_seq = 0;
    std::array<std::uint64_t, kBits / 64> bits{};
  };
  /// One window per sender seen.
  IdTable<NodeId, DedupWindow> dedup_;
};

}  // namespace pd::core
