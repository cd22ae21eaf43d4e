// Hardware & software cost calibration for the simulated testbed.
//
// Every constant models one component of the paper's testbed (§4: 4 nodes,
// 2×40-core 3.7GHz x86, Bluefield-2 DPUs with 2.0GHz A72 cores, ConnectX-6
// RNICs, 200 Gbps switches). Values are expressed in *reference
// nanoseconds* — time on a speed-1.0 host core — or in physical units.
// Sources are the paper's own reported single-point numbers and the systems
// it cites ([90] Wei et al. for SoC DMA, FaRM for one-sided designs).
//
// Changing a constant here recalibrates every benchmark consistently.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace pd::cost {

using sim::Duration;

// --------------------------------------------------------------------------
// Processor cores
// --------------------------------------------------------------------------

/// Host x86 core (3.7 GHz): the reference, speed 1.0.
inline constexpr double kHostCoreSpeed = 1.0;

/// DPU Arm A72 core @2.0 GHz vs x86 @3.7 GHz. §4.3.1 notes the streamlined
/// ISA "compensates somewhat"; effective throughput ratio ~0.5.
inline constexpr double kDpuCoreSpeed = 0.5;
/// Arm cores per Bluefield-2 DPU.
inline constexpr std::size_t kDpuCores = 8;

/// Relative jitter applied to per-hop compute times (cache effects,
/// branchy handlers). Essential under a deterministic scheduler: without
/// it, closed-loop clients phase-lock into convoys that no real system
/// exhibits. Deterministic per seed.
inline constexpr double kComputeJitter = 0.10;

// --------------------------------------------------------------------------
// Fabric (200 Gbps switched RDMA network)
// --------------------------------------------------------------------------

inline constexpr double kFabricBandwidthBps = 200e9;   // 200 Gbps links
inline constexpr Duration kFabricPropagationNs = 600;  // NIC->switch->NIC
inline constexpr Duration kSwitchLatencyNs = 400;      // cut-through hop

/// Multi-switch fabric (leaf-spine, ISSUE 9): one leaf<->spine fiber leg —
/// a multi-rack fiber run plus spine pipeline latency, so several times the
/// in-rack NIC<->ToR hop — and the leaf-uplink oversubscription
/// (per-flow uplink share = port bandwidth / factor). The leg length also
/// feeds the PDES lookahead matrix: cross-leaf shard pairs grant each other
/// horizons of 2 switch hops + 2 legs (~4.5 us), which is what lets the
/// parallel loop batch epochs at cluster scale.
inline constexpr Duration kInterSwitchPropagationNs = 1'500;
inline constexpr double kUplinkOversubscription = 4.0;

// --------------------------------------------------------------------------
// RNIC (ConnectX-6 class)
// --------------------------------------------------------------------------

/// Per-WR processing on the NIC (doorbell, WQE fetch, scheduling).
inline constexpr Duration kRnicPerWrNs = 250;
/// Effective per-byte DMA+PCIe cost on each NIC traversal. Calibrated so a
/// 4 KiB two-sided echo lands near the paper's 11.6 µs vs 8.4 µs at 64 B.
inline constexpr double kRnicPerByteNs = 0.25;
/// CQE generation + host-visible completion.
inline constexpr Duration kRnicCqeNs = 150;
/// RC connection establishment ("tens of milliseconds", §3.3).
inline constexpr Duration kRcConnectNs = 20 * 1'000'000;  // 20 ms
/// Re-activating an inactive (shadow) QP — no network exchange ([52]).
inline constexpr Duration kQpActivateNs = 2'000;
/// Max active QPs before NIC cache thrashing sets in (§3.3, [88]).
inline constexpr int kRnicQpCacheSlots = 64;
/// Extra per-WR penalty when the active-QP set overflows the NIC cache.
inline constexpr Duration kQpCacheMissPenaltyNs = 1'200;
/// Receiver-side RNR parking bound per tenant: messages that hit an empty
/// SRQ wait in a queue this deep; arrivals beyond it are dropped with a
/// NACK datagram back to the sender.
inline constexpr std::size_t kRnrQueueLimit = 64;

// --------------------------------------------------------------------------
// DPU network engine (DNE) stages — run on the DPU core at kDpuCoreSpeed
// --------------------------------------------------------------------------

/// TX stage: consume descriptor, routing lookup, least-congested QP pick,
/// wrap WR, post (§3.2). Reference ns (halved throughput on the DPU core).
inline constexpr Duration kDneTxStageNs = 550;
/// RX stage: CQE poll, RBR lookup, extract destination, forward to Comch.
inline constexpr Duration kDneRxStageNs = 450;
/// Core-thread receive-buffer replenish, per buffer (§3.5.2).
inline constexpr Duration kDneReplenishNs = 120;
/// DWRR scheduling decision per dequeue (§3.3).
inline constexpr Duration kDneSchedNs = 60;

// --------------------------------------------------------------------------
// DPU SoC DMA engine (on-path mode only, §2.1 Challenge#2 / Fig. 3)
// --------------------------------------------------------------------------

/// 64 B DMA read latency ≈ 2.6 µs ([90], quoted in §4.1.1).
inline constexpr Duration kSocDmaBaseNs = 2'600;
/// The SoC DMA engine is slow — ~0.5 GB/s effective at the queue depths
/// an on-path engine drives it at ([90] reports single-digit-us 64 B ops
/// and poor scaling; this is what collapses on-path mode in Fig. 11 (2)).
inline constexpr double kSocDmaPerByteNs = 2.0;
/// The engine processes DMA ops serially (its poor concurrency is what
/// collapses on-path mode at high load, Fig. 11(2)).
inline constexpr int kSocDmaParallelism = 1;

// --------------------------------------------------------------------------
// Cross-processor channels (DOCA Comch, §3.5.4 / Fig. 9)
// --------------------------------------------------------------------------

/// Comch-E: event-driven send/recv over blocking epoll. Per-descriptor CPU
/// work on each side plus wakeup latency.
inline constexpr Duration kComchEPerMsgNs = 900;
inline constexpr Duration kComchELatencyNs = 6'000;
/// Comch-P: producer/consumer ring, busy polled. Very low latency...
inline constexpr Duration kComchPPerMsgNs = 350;
inline constexpr Duration kComchPLatencyNs = 700;
/// ...but its internal epoll-based progress engine charges the polling core
/// per monitored endpoint per dequeue, which overloads beyond ~6 functions.
inline constexpr Duration kComchPPollPerEndpointNs = 450;
/// Dedicated host core burned per Comch-P client (one busy ring each).
inline constexpr int kComchPCoresPerClient = 1;

// --------------------------------------------------------------------------
// Host kernel path (TCP/IP + syscalls + interrupts)
// --------------------------------------------------------------------------

/// Kernel TCP/IP per small request-response on one side (syscalls, skb
/// alloc, protocol processing, softirq). Drives K-Ingress in Fig. 13.
inline constexpr Duration kKernelTcpPerReqNs = 11'000;
/// Long-lived engine-to-engine relay sockets (SPRIGHT's inter-node path):
/// no per-request connection churn, aggregated writes, warm caches — the
/// kernel cost per message is substantially lower than a fresh
/// client-facing request.
inline constexpr Duration kKernelRelayPerReqNs = 4'500;
inline constexpr Duration kKernelRelayInterruptNs = 1'500;
/// Interrupt + wakeup cost charged to the receiving core per event.
inline constexpr Duration kInterruptNs = 2'200;
/// Kernel-path copy throughput (user<->skb), bytes/ns denominator.
inline constexpr double kKernelCopyPerByteNs = 0.25;
/// One-way latency floor of the kernel loopback/TCP path.
inline constexpr Duration kKernelTcpLatencyNs = 18'000;

/// F-stack (DPDK userspace TCP) per request-response on one side: no
/// syscalls, no interrupts, busy-polled.
inline constexpr Duration kFstackPerReqNs = 3'200;
inline constexpr Duration kFstackLatencyNs = 2'000;
/// Palladium's ingress batches socket events in its run-to-completion loop
/// (§3.6 "We enable batching in the event loop to improve concurrency"),
/// amortizing the per-request stack traversal.
inline constexpr Duration kFstackBatchedPerReqNs = 1'600;

/// eBPF SK_MSG descriptor handoff (§3.5.3): sockmap lookup + redirect,
/// bypassing the protocol stack. Sender-side cost; receiver pays an
/// interrupt-style wakeup (its Achilles heel at high concurrency, §4.3).
inline constexpr Duration kSkMsgSendNs = 650;
inline constexpr Duration kSkMsgWakeupNs = 1'400;
inline constexpr Duration kSkMsgLatencyNs = 1'800;

/// Loopback-TCP descriptor channel (Fig. 9 baseline).
inline constexpr Duration kTcpChanPerMsgNs = 8'500;
inline constexpr Duration kTcpChanLatencyNs = 25'000;

// --------------------------------------------------------------------------
// HTTP processing (NGINX-class, §3.6)
// --------------------------------------------------------------------------

inline constexpr Duration kHttpParseBaseNs = 1'800;
inline constexpr double kHttpParsePerByteNs = 0.05;
inline constexpr Duration kHttpSerializeNs = 1'200;
/// NGINX upstream (reverse-proxy) machinery per forwarded request:
/// upstream selection, connection bookkeeping, header rewrite, buffering.
/// Paid by K-/F-Ingress on every proxied hop; PALLADIUM's gateway replaces
/// it with a routing-table lookup + RDMA post.
inline constexpr Duration kNginxProxyForwardNs = 4'000;

// --------------------------------------------------------------------------
// Memory copies on host cores (for OWRC receiver-side copy, Fig. 12, and
// cross-security-domain copies)
// --------------------------------------------------------------------------

/// Cache-resident memcpy (~30 GB/s): the artificially favourable
/// "OWRC-Best" case the paper constructs.
inline constexpr double kCopyHotPerByteNs = 0.033;
/// Main-memory memcpy after TLB flush (~6 GB/s): "OWRC-Worst".
inline constexpr double kCopyColdPerByteNs = 0.16;
inline constexpr Duration kCopyBaseNs = 250;

// --------------------------------------------------------------------------
// One-sided RDMA designs (Fig. 2 / Fig. 12)
// --------------------------------------------------------------------------

/// Receiver-side arrival polling granularity (FaRM-style canary scan).
inline constexpr Duration kOneSidedPollIntervalNs = 1'500;
inline constexpr Duration kOneSidedPollWorkNs = 300;
/// RDMA CAS (lock acquire / release) — one NIC round trip plus atomic
/// execution on the remote NIC.
inline constexpr Duration kRdmaAtomicExtraNs = 600;
/// Lock retry backoff when a distributed lock is contended.
inline constexpr Duration kLockRetryBackoffNs = 2'000;
/// Posting a one-sided WR from the function runtime into the store client
/// (descriptor packing + doorbell; replaces the full RPC send path).
inline constexpr Duration kStorePostNs = 400;
/// Decoding a fetched cart record back into the chain's working payload
/// after the READ response lands.
inline constexpr Duration kStoreDecodeNs = 900;

// --------------------------------------------------------------------------
// Serverless runtime
// --------------------------------------------------------------------------

/// Function-runtime I/O library overhead per send/recv (routing query,
/// descriptor packing) on the calling core.
inline constexpr Duration kIoLibraryNs = 400;
/// Sidecar policy check per hop (lightweight eBPF sidecar, §3.1).
inline constexpr Duration kSidecarNs = 300;
/// NightCore-style dispatcher work per invocation: its engine brokers
/// every function call (Fig. 1's coordinator role) with HTTP-based
/// invocation framing — the cost systems with direct inter-function
/// invocation (SPRIGHT, PALLADIUM) avoid (§2.2).
inline constexpr Duration kDispatcherPerInvocationNs = 9'000;
/// Worker-process spawn/teardown during ingress horizontal scaling (§3.6
/// notes a brief interruption on restart).
inline constexpr Duration kIngressWorkerRestartNs = 300 * 1'000'000;  // 300 ms
/// Ingress horizontal-scaling hysteresis (§3.6), shared by PALLADIUM's
/// gateway and F-Ingress: every check period the gateway averages its
/// workers' useful-CPU share, adds a worker above the upper bound and
/// removes one below the lower bound.
inline constexpr double kIngressScaleUpUtil = 0.60;
inline constexpr double kIngressScaleDownUtil = 0.30;
inline constexpr Duration kIngressScaleCheckPeriodNs = 1'000'000'000;  // 1 s

}  // namespace pd::cost
