// Bluefield-2 DPU model: wimpy Arm cores and the (slow) SoC DMA engine.
#pragma once

#include <memory>
#include <string>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "proto/cost_model.hpp"
#include "sim/core.hpp"
#include "sim/event_fn.hpp"

namespace pd::dpu {

/// The SoC DMA engine moves bytes between host memory and DPU-local SoC
/// memory in on-path mode (Fig. 3 (1)). It is serial and slow — the
/// documented bottleneck of on-path offloading (§4.1.1).
class SocDmaEngine {
 public:
  explicit SocDmaEngine(sim::Scheduler& sched) : sched_(sched) {}

  /// Move `bytes` across the PCIe SoC path; `done` fires on completion.
  /// Transfers queue FIFO behind each other (kSocDmaParallelism == 1).
  void transfer(Bytes bytes, sim::EventFn done);

  /// Resource name reported to the busy-time observer ("nodeN/dma").
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] sim::Duration backlog() const;

 private:
  sim::Scheduler& sched_;
  std::string name_ = "dma";
  sim::TimePoint busy_until_ = 0;
  std::uint64_t transfers_ = 0;
  Bytes bytes_moved_ = 0;
};

/// One DPU: an Arm core complex plus the SoC DMA engine. The integrated
/// ConnectX RNIC is modeled separately (rdma::Rnic) and shared with the
/// host, matching the Bluefield architecture.
class Dpu {
 public:
  Dpu(sim::Scheduler& sched, NodeId node, std::size_t arm_cores = 8,
      double core_speed = cost::kDpuCoreSpeed);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] sim::CoreSet& cores() { return cores_; }
  [[nodiscard]] sim::Core& core(std::size_t i) { return cores_.core(i); }
  [[nodiscard]] SocDmaEngine& dma() { return dma_; }

 private:
  NodeId node_;
  sim::CoreSet cores_;
  SocDmaEngine dma_;
};

}  // namespace pd::dpu
