// Shared identifier types.

#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>

namespace actop {

// Index of a server (silo) in the cluster, 0-based. -1 means "none".
using ServerId = int32_t;
inline constexpr ServerId kNoServer = -1;

// Globally unique actor identity. Workloads encode an actor type in the high
// bits (see MakeActorId) so one keyspace serves all applications.
using ActorId = uint64_t;
inline constexpr ActorId kNoActor = 0;

// Vertex in a communication graph == an actor.
using VertexId = ActorId;

// Actor type tag (application-defined small integer).
using ActorType = uint32_t;

constexpr ActorId MakeActorId(ActorType type, uint64_t key) {
  return (static_cast<uint64_t>(type) << 48) | (key & 0xFFFFFFFFFFFFULL);
}

constexpr ActorType ActorTypeOf(ActorId id) { return static_cast<ActorType>(id >> 48); }
constexpr uint64_t ActorKeyOf(ActorId id) { return id & 0xFFFFFFFFFFFFULL; }

// Identifies an external client (load generator frontend).
using ClientId = int32_t;

// Index of a node attached to the network (servers first, then clients).
using NodeId = int32_t;
inline constexpr NodeId kNoNode = -1;

}  // namespace actop

#endif  // SRC_COMMON_IDS_H_
