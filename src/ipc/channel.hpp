// Generic modeled descriptor hop: charges CPU work to the sender core,
// delays the descriptor in flight, charges the receiver core, then invokes
// the receiver's handler. Its one program user is the loopback-TCP hop of
// the Fig. 9 bench (bench/fig09_comch_channels.cpp); SockMap (SK_MSG) and
// ComchServer share only DescriptorHandler and model their own hops.
#pragma once

#include <functional>
#include <utility>

#include "mem/descriptor.hpp"
#include "sim/core.hpp"
#include "sim/scheduler.hpp"

namespace pd::ipc {

using DescriptorHandler = std::function<void(const mem::BufferDescriptor&)>;

struct HopParams {
  sim::Duration sender_cost = 0;    ///< reference-ns on the sender's core
  sim::Duration receiver_cost = 0;  ///< reference-ns on the receiver's core
  sim::Duration latency = 0;        ///< in-flight delay (queue-independent)
};

class DescriptorHop {
 public:
  /// Cores may be nullptr when that side's CPU cost is modeled elsewhere.
  DescriptorHop(sim::Scheduler& sched, HopParams params, sim::Core* sender,
                sim::Core* receiver, DescriptorHandler handler)
      : sched_(sched),
        params_(params),
        sender_(sender),
        receiver_(receiver),
        handler_(std::move(handler)) {
    PD_CHECK(handler_ != nullptr, "hop needs a receive handler");
  }

  void send(const mem::BufferDescriptor& d) {
    ++sent_;
    if (sender_ != nullptr && params_.sender_cost > 0) {
      sender_->submit(params_.sender_cost, [this, d] { in_flight(d); });
    } else {
      in_flight(d);
    }
  }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  void in_flight(const mem::BufferDescriptor& d) {
    sched_.schedule_after(params_.latency, [this, d] { arrive(d); });
  }

  void arrive(const mem::BufferDescriptor& d) {
    if (receiver_ != nullptr && params_.receiver_cost > 0) {
      receiver_->submit(params_.receiver_cost, [this, d] {
        ++delivered_;
        handler_(d);
      });
    } else {
      ++delivered_;
      handler_(d);
    }
  }

  sim::Scheduler& sched_;
  HopParams params_;
  sim::Core* sender_;
  sim::Core* receiver_;
  DescriptorHandler handler_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace pd::ipc
