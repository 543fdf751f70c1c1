// Per-server driver of the distributed partitioning algorithm (§4.2–§4.3).
//
// Each agent samples its server's outgoing actor-to-actor traffic with a
// Space-Saving summary. Once per exchange period it freezes the sampled
// heavy edges into a CsrGraph and plans over it with a planning-only
// RepartitionArena: it ranks peers by expected cost reduction and runs the
// pairwise coordination protocol over control messages. Accepted moves are
// applied through the server's opportunistic migration mechanism.
//
// The frozen graph and the arena are scratch, shared by every agent that
// plans on the same thread: nothing planned outlives one RunRound or
// OnExchangeRequest call except the peer plans still to be tried.

#ifndef SRC_RUNTIME_PARTITION_AGENT_H_
#define SRC_RUNTIME_PARTITION_AGENT_H_

#include <cstdint>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/core/pairwise_partition.h"
#include "src/core/space_saving.h"
#include "src/runtime/message.h"
#include "src/sim/simulation.h"

namespace actop {

class Cluster;
class Server;

struct PartitionAgentConfig {
  // How often the agent initiates an exchange round.
  SimDuration exchange_period = Seconds(6);
  // A server rejects incoming exchange requests within this window after its
  // last exchange (paper: one minute; scaled with the rest of the clock).
  SimDuration exchange_min_gap = Seconds(6);
  // How many peers to try per round before giving up (paper: until all
  // positive-score peers reject; bounding it caps control traffic).
  int max_peers_per_round = 3;
  // Space-Saving capacity for sampled edges.
  size_t edge_sample_capacity = 8192;
  // Edge counters decay by half at this period so stale edges fade (§4.3).
  SimDuration edge_decay_period = Seconds(30);
  // Parameters of the pure partitioning algorithm (target_size is filled in
  // from live cluster statistics each round).
  PairwiseConfig pairwise{.candidate_set_size = 64, .balance_delta = 64};
  // CPU charged to the worker stage per round for candidate-set computation,
  // per sampled edge (models the O(V log k) scan of §4.2).
  SimDuration plan_compute_per_edge = Nanos(120);
};

class PartitionAgent {
 public:
  PartitionAgent(Simulation* sim, Cluster* cluster, Server* server, PartitionAgentConfig config);

  // Begins periodic exchange rounds (randomly phase-shifted so servers do
  // not initiate in lock step).
  void Start();
  void Stop();

  // Called by the server for every actor-to-actor message it sends.
  void ObserveEdge(ActorId local, ActorId peer, ServerId dest);

  // Control-message entry points (called by the Server).
  void OnExchangeRequest(ServerId from, const PartitionExchangeRequest& request);
  void OnExchangeResponse(ServerId from, const PartitionExchangeResponse& response);

  // Sampled weight of the (local -> peer) edge: its Space-Saving count, or
  // 0 when the edge is not tracked (exposed for tests).
  uint64_t SampledWeight(ActorId local, ActorId peer) const {
    return edges_.EstimateCount(EdgeKey{local, peer});
  }

  uint64_t rounds_initiated() const { return rounds_initiated_; }
  uint64_t exchanges_accepted() const { return exchanges_accepted_; }
  uint64_t exchanges_rejected() const { return exchanges_rejected_; }

 private:
  struct EdgeKey {
    ActorId local;
    ActorId peer;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return static_cast<size_t>(SplitMix64(k.local ^ SplitMix64(k.peer)));
    }
  };

  void RunRound();
  void TryNextPeer();
  void MigrateAccepted(ServerId dest, const std::vector<VertexId>& vertices);
  PairwiseConfig CurrentPairwiseConfig() const;
  // Per-thread planning scratch (defined in partition_agent.cc).
  struct PlanWorkspace;
  // Freezes the current samples into this thread's workspace and resets its
  // arena for a fresh plan. Sampled local vertices that are no longer active
  // here are dropped; every vertex's location resolves as active here, else
  // the location cache, else the last-seen destination, else a stand-in
  // server one past the cluster's real ids.
  PlanWorkspace& FreezePlan();

  Simulation* sim_;
  Cluster* cluster_;
  Server* server_;
  PartitionAgentConfig config_;

  SpaceSaving<EdgeKey, EdgeKeyHash> edges_;
  // Last observed destination for peers we send to (fallback when the
  // location cache has evicted the entry). Updated per observed edge and
  // never iterated, so the open-addressing map keeps it off the heap.
  FlatHashMap<ActorId, ServerId> last_seen_;

  EventId round_timer_ = 0;
  EventId decay_timer_ = 0;
  SimTime last_exchange_ = -(int64_t{1} << 60);
  bool exchange_in_flight_ = false;
  SimTime exchange_sent_at_ = 0;
  std::vector<PeerPlan> pending_plans_;  // remaining peers to try this round
  size_t next_plan_ = 0;
  uint64_t next_exchange_id_ = 1;

  uint64_t rounds_initiated_ = 0;
  uint64_t exchanges_accepted_ = 0;
  uint64_t exchanges_rejected_ = 0;
};

}  // namespace actop

#endif  // SRC_RUNTIME_PARTITION_AGENT_H_
