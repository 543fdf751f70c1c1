#include "src/testing/chaos_client.h"

#include "src/common/check.h"

namespace actop {

ChaosClient::ChaosClient(Simulation* sim, Cluster* cluster, ChaosClientConfig config)
    : sim_(sim), cluster_(cluster), config_(config), rng_(config.seed) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  node_ = cluster_->AddClientNode(this);
  sim_->SchedulePeriodic(config_.sweep_period, [this] { SweepTimeouts(); });
}

void ChaosClient::Call(ActorId target, MethodId method, uint64_t app_data) {
  const uint64_t seq = next_seq_++;
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, seq};
  env->target = target;
  env->source_actor = kNoActor;
  env->method = method;
  env->app_data = app_data;
  env->payload_bytes = config_.request_bytes;
  env->reply_to = node_;
  env->created_at = sim_->now();

  pending_.emplace(seq, sim_->now());
  timeout_queue_.emplace_back(sim_->now() + config_.timeout, seq);
  issued_++;

  const auto gateway =
      static_cast<ServerId>(rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  const uint32_t bytes = env->payload_bytes;  // read before the move below
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), bytes, std::move(env));
}

void ChaosClient::OnDeliver(NodeId from, uint32_t bytes, EnvelopePtr env) {
  (void)from;
  (void)bytes;
  ACTOP_CHECK(env->kind == MessageKind::kResponse);
  const uint64_t seq = env->call_id.seq;
  auto it = pending_.find(seq);
  if (it != pending_.end()) {
    pending_.erase(it);
    completed_.insert(seq);
    succeeded_++;
    return;
  }
  if (completed_.contains(seq)) {
    duplicate_responses_++;
    return;
  }
  if (expired_.contains(seq)) {
    // The system answered after our deadline — the call was slow, not lost.
    late_responses_++;
    return;
  }
  unknown_responses_++;
}

void ChaosClient::SweepTimeouts() {
  const SimTime now = sim_->now();
  while (!timeout_queue_.empty() && timeout_queue_.front().first <= now) {
    const uint64_t seq = timeout_queue_.front().second;
    timeout_queue_.pop_front();
    if (pending_.erase(seq) > 0) {
      expired_.insert(seq);
      timed_out_++;
    }
  }
}

}  // namespace actop
