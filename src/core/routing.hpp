// Routing state (§3.5.5): the intra-node table maps local functions to
// their IPC endpoints; the inter-node table (held by the DNE) maps remote
// functions to worker nodes. A control-plane coordinator synchronizes both
// on function deployment events. Both are IdTables: every message consults
// one, and function ids are small counters.
#pragma once

#include "common/check.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"

namespace pd::core {

/// Function -> node placement, as known by one node's DNE.
class InterNodeRoutingTable {
 public:
  void add_route(FunctionId fn, NodeId node) {
    PD_CHECK(routes_.insert(fn, node) != nullptr,
             "duplicate inter-node route for function " << fn);
  }
  [[nodiscard]] bool has_route(FunctionId fn) const {
    return routes_.contains(fn);
  }
  [[nodiscard]] NodeId lookup(FunctionId fn) const {
    const NodeId* node = routes_.find(fn);
    PD_CHECK(node != nullptr, "no inter-node route for function " << fn);
    return *node;
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  IdTable<FunctionId, NodeId> routes_;
};

/// Which functions are local to this node. Stored read-only for functions
/// in the unified memory pool; the I/O library queries it to choose the
/// intra-node (shared memory) vs inter-node (DNE) path.
class IntraNodeRoutingTable {
 public:
  void add_local(FunctionId fn) {
    PD_CHECK(local_.insert(fn, true) != nullptr,
             "function " << fn << " already local");
  }
  [[nodiscard]] bool is_local(FunctionId fn) const {
    return local_.contains(fn);
  }
  [[nodiscard]] std::size_t size() const { return local_.size(); }

 private:
  IdTable<FunctionId, bool> local_;  ///< a set: every value is true
};

}  // namespace pd::core
