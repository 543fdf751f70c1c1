#include "src/runtime/partition_agent.h"

#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/core/csr_graph.h"
#include "src/core/repartition_arena.h"
#include "src/runtime/cluster.h"
#include "src/runtime/server.h"

namespace actop {

PartitionAgent::PartitionAgent(Simulation* sim, Cluster* cluster, Server* server,
                               PartitionAgentConfig config)
    : sim_(sim),
      cluster_(cluster),
      server_(server),
      config_(config),
      edges_(config.edge_sample_capacity) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  ACTOP_CHECK(server != nullptr);
}

void PartitionAgent::Start() {
  ACTOP_CHECK(round_timer_ == 0);
  // Randomly phase-shift the first round so the servers do not initiate
  // exchanges in lock step.
  const SimDuration phase = static_cast<SimDuration>(
      cluster_->rng().NextBounded(static_cast<uint64_t>(config_.exchange_period)));
  sim_->ScheduleAfter(phase, [this] {
    if (round_timer_ != 0) {
      return;
    }
    round_timer_ = sim_->SchedulePeriodic(config_.exchange_period, [this] { RunRound(); });
  });
  decay_timer_ = sim_->SchedulePeriodic(config_.edge_decay_period, [this] {
    // Idle servers (nothing sampled) skip the decay pass entirely. The only
    // state this leaves un-halved is the sketch's total-observed counter,
    // which nothing downstream reads when the sketch is empty.
    if (edges_.size() != 0) {
      edges_.Decay();
    }
  });
}

void PartitionAgent::Stop() {
  if (round_timer_ != 0) {
    sim_->CancelPeriodic(round_timer_);
    round_timer_ = 0;
  }
  if (decay_timer_ != 0) {
    sim_->CancelPeriodic(decay_timer_);
    decay_timer_ = 0;
  }
}

void PartitionAgent::ObserveEdge(ActorId local, ActorId peer, ServerId dest) {
  edges_.Observe(EdgeKey{local, peer});
  if (dest != kNoServer && dest != server_->id()) {
    last_seen_.Insert(peer, dest);
  } else if (dest == server_->id()) {
    last_seen_.Erase(peer);
  }
}

PairwiseConfig PartitionAgent::CurrentPairwiseConfig() const {
  PairwiseConfig cfg = config_.pairwise;
  cfg.target_size = static_cast<double>(cluster_->total_activations()) /
                    static_cast<double>(cluster_->num_servers());
  return cfg;
}

struct PartitionAgent::PlanWorkspace {
  PlanWorkspace() = default;
  // The arena keeps a pointer to `graph`.
  PlanWorkspace(const PlanWorkspace&) = delete;
  PlanWorkspace& operator=(const PlanWorkspace&) = delete;

  CsrGraph graph;
  // Planning-only, over `graph`; built for one server count.
  std::unique_ptr<RepartitionArena> arena;
  std::vector<CsrEdge> edges;
  std::vector<ServerId> assignment;
  std::vector<VertexId> accepted;  // responder's S0
  std::vector<VertexId> counter;   // responder's T0
};

PartitionAgent::PlanWorkspace& PartitionAgent::FreezePlan() {
  // One workspace per planning thread: agents plan one at a time on each
  // thread and keep nothing of it across calls, so sharing the buffers keeps
  // their capacity warm without paying for a copy per agent.
  thread_local PlanWorkspace ws;
  ws.edges.clear();
  edges_.ForEach([this](const auto& entry) {
    // A local vertex no longer active here migrated away or was
    // deactivated; decay will reclaim its edges.
    if (server_->IsActive(entry.key.local)) {
      ws.edges.push_back(
          CsrEdge{entry.key.local, entry.key.peer, static_cast<double>(entry.count)});
    }
  });
  ws.graph.RebuildFromEdgeList(ws.edges);

  const auto unknown = static_cast<ServerId>(cluster_->num_servers());
  ws.assignment.resize(static_cast<size_t>(ws.graph.num_vertices()));
  for (int32_t i = 0; i < ws.graph.num_vertices(); i++) {
    const VertexId v = ws.graph.IdOf(i);
    ServerId loc;
    if (server_->IsActive(v)) {
      loc = server_->id();
    } else {
      loc = server_->location_cache().Peek(v);
      if (loc == kNoServer) {
        if (const ServerId* seen = last_seen_.Find(v)) {
          loc = *seen;
        }
      }
      if (loc == kNoServer) {
        loc = unknown;
      }
    }
    ws.assignment[static_cast<size_t>(i)] = loc;
  }
  const int arena_servers = cluster_->num_servers() + 1;
  if (ws.arena == nullptr || ws.arena->num_servers() != arena_servers) {
    ws.arena = std::make_unique<RepartitionArena>(&ws.graph, arena_servers,
                                                  CurrentPairwiseConfig(), ws.assignment);
  } else {
    ws.arena->ResetPlanning(CurrentPairwiseConfig(), ws.assignment);
  }
  return ws;
}

void PartitionAgent::RunRound() {
  if (exchange_in_flight_) {
    // An exchange request or its response can be shed by an overloaded
    // receive queue; give up on it after a few periods so the agent cannot
    // wedge permanently.
    if (sim_->now() - exchange_sent_at_ < 3 * config_.exchange_period) {
      return;
    }
    exchange_in_flight_ = false;
  }
  rounds_initiated_++;
  if (edges_.size() == 0) {
    // Nothing sampled: the frozen graph would be empty and the plan set
    // with it, so skip the freeze. Observably identical to running it
    // (pending_plans_ ends up empty either way, and the worker-stage charge
    // below is skipped for empty plan sets).
    pending_plans_.clear();
    next_plan_ = 0;
    return;
  }
  FreezePlan().arena->ExportPeerPlans(server_->id(), &pending_plans_,
                                      static_cast<ServerId>(cluster_->num_servers()));
  if (static_cast<int>(pending_plans_.size()) > config_.max_peers_per_round) {
    pending_plans_.resize(static_cast<size_t>(config_.max_peers_per_round));
  }
  next_plan_ = 0;
  if (pending_plans_.empty()) {
    return;
  }
  // Charge the candidate-set computation (O(edges) scan, §4.2's complexity
  // analysis) to the worker stage, then contact the best peer.
  StageEvent ev;
  ev.compute = static_cast<SimDuration>(config_.plan_compute_per_edge *
                                        static_cast<SimDuration>(edges_.size()));
  ev.done = [this] { TryNextPeer(); };
  server_->stage(Server::kWorker).Enqueue(std::move(ev));
}

void PartitionAgent::TryNextPeer() {
  if (next_plan_ >= pending_plans_.size()) {
    exchange_in_flight_ = false;
    return;
  }
  PeerPlan& plan = pending_plans_[next_plan_++];
  exchange_in_flight_ = true;
  exchange_sent_at_ = sim_->now();
  PartitionExchangeRequest request;
  request.from_num_vertices = server_->num_activations();
  // Each plan is tried at most once per round, so the candidates move onto
  // the wire instead of being copied (a deep copy per try: one vector per
  // candidate's edge list).
  request.candidates = std::move(plan.candidates);
  request.exchange_id = next_exchange_id_++;
  server_->SendControl(plan.peer, std::move(request));
}

void PartitionAgent::OnExchangeRequest(ServerId from, const PartitionExchangeRequest& request) {
  PartitionExchangeResponse response;
  response.exchange_id = request.exchange_id;
  if (sim_->now() - last_exchange_ < config_.exchange_min_gap) {
    response.rejected = true;
    server_->SendControl(from, std::move(response));
    return;
  }
  // The arena reads the wire candidates in place and decides into reused
  // buffers; only the response payload allocates.
  PlanWorkspace& ws = FreezePlan();
  ws.arena->DecideOffer(server_->id(), from, request.candidates,
                        static_cast<double>(request.from_num_vertices),
                        static_cast<double>(server_->num_activations()),
                        static_cast<ServerId>(cluster_->num_servers()), &ws.accepted, &ws.counter);

  // Transfer T0 to the requester; vertices busy with in-flight calls are
  // skipped this round (they will surface again if the edge stays heavy).
  int migrated = 0;
  for (VertexId v : ws.counter) {
    if (server_->MigrateActor(v, from)) {
      migrated++;
    }
  }
  response.accepted.assign(ws.accepted.begin(), ws.accepted.end());
  if (!response.accepted.empty() || migrated > 0) {
    last_exchange_ = sim_->now();
  }
  server_->SendControl(from, std::move(response));
}

void PartitionAgent::OnExchangeResponse(ServerId from, const PartitionExchangeResponse& response) {
  exchange_in_flight_ = false;
  if (response.rejected) {
    exchanges_rejected_++;
    TryNextPeer();
    return;
  }
  exchanges_accepted_++;
  if (!response.accepted.empty()) {
    last_exchange_ = sim_->now();
    MigrateAccepted(from, response.accepted);
  }
  pending_plans_.clear();
  next_plan_ = 0;
}

void PartitionAgent::MigrateAccepted(ServerId dest, const std::vector<VertexId>& vertices) {
  for (VertexId v : vertices) {
    server_->MigrateActor(v, dest);
  }
}

}  // namespace actop
