#include "obs/hub.hpp"

namespace pd::obs {

namespace {
thread_local Hub* tl_hub = nullptr;
}  // namespace

Hub* hub() { return tl_hub; }

Hub* install_thread_hub(Hub* h) {
  Hub* prev = tl_hub;
  tl_hub = h;
  return prev;
}

}  // namespace pd::obs
