#include "dpu/dpu.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/profile.hpp"

namespace pd::dpu {

void SocDmaEngine::transfer(Bytes bytes, sim::EventFn done) {
  PD_CHECK(done, "DMA completion callback required");
  const auto op_ns =
      cost::kSocDmaBaseNs +
      static_cast<sim::Duration>(static_cast<double>(bytes) *
                                 cost::kSocDmaPerByteNs);
  const sim::TimePoint now = sched_.now();
  const sim::TimePoint begin = std::max(busy_until_, now);
  if (sim::BusyObserver* o = sim::busy_observer()) {
    o->on_busy(name_, sim::current_profile_frame(), now, begin, op_ns, bytes);
  }
  busy_until_ = begin + op_ns;
  ++transfers_;
  bytes_moved_ += bytes;
  sched_.schedule_at(busy_until_, std::move(done));
}

sim::Duration SocDmaEngine::backlog() const {
  return std::max<sim::Duration>(0, busy_until_ - sched_.now());
}

Dpu::Dpu(sim::Scheduler& sched, NodeId node, std::size_t arm_cores,
         double core_speed)
    : node_(node),
      cores_(sched, "dpu" + std::to_string(node.value()) + "/arm", arm_cores,
             core_speed),
      dma_(sched) {
  dma_.set_name("node" + std::to_string(node.value()) + "/dma");
}

}  // namespace pd::dpu
