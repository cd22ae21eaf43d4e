// Buffer descriptors: the small tokens that move through the data plane in
// place of payload bytes (§3.5.1). A descriptor identifies one buffer in one
// tenant's unified memory pool; ownership of the descriptor *is* ownership
// of the buffer.
#pragma once

#include <cstdint>

#include "common/ids.hpp"

namespace pd::mem {

/// Actors are the entities that may own buffers: functions, network
/// engines and RNICs. Encoded into one 64-bit id so descriptors stay cheap
/// to pass around.
enum class ActorKind : std::uint8_t {
  kNone = 0,
  kFunction,
  kNetworkEngine,  // DNE or CNE
  kRnic,           // posted to hardware (in-flight RDMA)
};

struct Actor {
  ActorKind kind = ActorKind::kNone;
  std::uint32_t id = 0;

  friend constexpr bool operator==(Actor, Actor) = default;
};

constexpr Actor actor_function(FunctionId f) {
  return {ActorKind::kFunction, f.value()};
}
constexpr Actor actor_engine(NodeId n) {
  return {ActorKind::kNetworkEngine, n.value()};
}
constexpr Actor actor_rnic(NodeId n) { return {ActorKind::kRnic, n.value()}; }

const char* to_string(ActorKind kind);

/// 16-byte wire descriptor (matches the paper's Comch descriptor size).
struct BufferDescriptor {
  PoolId pool;            ///< which tenant pool the buffer belongs to
  std::uint32_t index = 0;  ///< buffer slot within the pool
  std::uint32_t length = 0; ///< payload bytes currently valid
  TenantId tenant;        ///< owning tenant (redundant with pool; checked)

  [[nodiscard]] bool valid() const { return pool.valid(); }
  friend constexpr bool operator==(const BufferDescriptor&,
                                   const BufferDescriptor&) = default;
};

static_assert(sizeof(BufferDescriptor) == 16, "descriptor must stay 16 bytes");

}  // namespace pd::mem
