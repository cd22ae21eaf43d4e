// Routing state (§3.5.5): the intra-node table maps local functions to
// their IPC endpoints; the inter-node table (held by the DNE) maps remote
// functions to worker nodes. A control-plane coordinator synchronizes both
// on function deployment events.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace pd::core {

/// Function -> node placement, as known by one node's DNE.
class InterNodeRoutingTable {
 public:
  void add_route(FunctionId fn, NodeId node) {
    PD_CHECK(routes_.emplace(fn, node).second,
             "duplicate inter-node route for function " << fn);
  }
  [[nodiscard]] bool has_route(FunctionId fn) const {
    return routes_.find(fn) != routes_.end();
  }
  [[nodiscard]] NodeId lookup(FunctionId fn) const {
    auto it = routes_.find(fn);
    PD_CHECK(it != routes_.end(), "no inter-node route for function " << fn);
    return it->second;
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  std::unordered_map<FunctionId, NodeId> routes_;
};

/// Which functions are local to this node. Stored read-only for functions
/// in the unified memory pool; the I/O library queries it to choose the
/// intra-node (shared memory) vs inter-node (DNE) path.
class IntraNodeRoutingTable {
 public:
  void add_local(FunctionId fn) {
    PD_CHECK(local_.emplace(fn).second,
             "function " << fn << " already local");
  }
  [[nodiscard]] bool is_local(FunctionId fn) const {
    return local_.find(fn) != local_.end();
  }
  [[nodiscard]] std::size_t size() const { return local_.size(); }

 private:
  std::unordered_set<FunctionId> local_;
};

}  // namespace pd::core
