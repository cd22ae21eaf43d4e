// Function chains: the unit of tenancy in Palladium (§3.1 treats each
// chain as an independent tenant with its own unified memory pool).
//
// A chain is modeled as the sequence of data exchanges a request performs:
// entry -> hop[0].fn -> hop[1].fn -> ... -> hop[n-1].fn -> entry. A
// fan-out call graph (frontend calling three services) appears here as the
// equivalent exchange sequence frontend, svc1, frontend, svc2, frontend...
// — preserving exactly the number and sizes of data-plane transfers, which
// is what the evaluation measures.
#pragma once

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "sim/time.hpp"

namespace pd::runtime {

/// How a hop is realized when the RDMA state store is enabled (ISSUE 8).
/// A non-kNone hop marks a state-service visit the *previous* hop's
/// function can replace with one-sided verbs against the store slab —
/// provided its node has a CartStoreClient; otherwise the hop runs as an
/// ordinary RPC. Store-eligible hops must be sandwiched between two visits
/// of the same function (the caller resumes its own next hop after the
/// store op completes).
enum class StoreOp : std::uint8_t {
  kNone,             ///< ordinary RPC to the hop's function
  kRead,             ///< one-sided READ of the record (zero remote CPU)
  kReadModifyWrite,  ///< CAS-acquire + WRITE + FAA version + CAS-release
};

struct ChainHop {
  FunctionId fn;
  /// Application compute at this hop (reference ns on a host core).
  sim::Duration compute_ns = 0;
  /// Payload bytes of the message this hop emits to its successor (or the
  /// response payload if this is the final hop).
  std::uint32_t out_payload = 256;
  /// One-sided realization of this hop when a state store is enabled.
  StoreOp store_op = StoreOp::kNone;
};

struct Chain {
  std::uint32_t id = 0;
  std::string name;
  TenantId tenant;
  /// Payload bytes of the entry message delivered to hops[0].
  std::uint32_t request_payload = 256;
  std::vector<ChainHop> hops;

  [[nodiscard]] std::size_t exchanges() const { return hops.size() + 1; }
};

/// Read-only chain registry, shared by all function runtimes (stored in
/// the unified memory pool as shared state in the real system, §3.5.5).
/// Every hop resolves its chain here, so the lookup indexes, never hashes.
class ChainTable {
 public:
  void add(Chain chain) {
    PD_CHECK(!chain.hops.empty(), "chain needs at least one hop");
    const Key key{chain.id};
    PD_CHECK(chains_.insert(key, std::move(chain)) != nullptr,
             "duplicate chain id " << key);
  }

  [[nodiscard]] const Chain& by_id(std::uint32_t id) const {
    const Chain* chain = chains_.find(Key{id});
    PD_CHECK(chain != nullptr, "unknown chain " << id);
    return *chain;
  }

  [[nodiscard]] bool has(std::uint32_t id) const {
    return chains_.contains(Key{id});
  }

  [[nodiscard]] std::size_t size() const { return chains_.size(); }

 private:
  using Key = StrongId<struct ChainTag>;
  IdTable<Key, Chain> chains_;
};

}  // namespace pd::runtime
