#include "src/runtime/client.h"

#include <utility>

#include "src/common/check.h"
#include "src/runtime/message.h"

namespace actop {

ClientPool::ClientPool(Simulation* sim, Cluster* cluster, ClientConfig config, TargetFn target_fn)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      target_fn_(std::move(target_fn)),
      rng_(config.seed) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  ACTOP_CHECK(target_fn_ != nullptr);
  ACTOP_CHECK(config_.request_rate > 0.0);
  node_ = cluster_->AddClientNode(this);
  sim_->SchedulePeriodic(Seconds(1), [this] { SweepTimeouts(); });
}

void ClientPool::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  ScheduleNextArrival();
}

void ClientPool::Stop() { running_ = false; }

void ClientPool::ResetStats() {
  latency_.Reset();
  issued_ = 0;
  completed_ = 0;
  timeouts_ = 0;
}

void ClientPool::ScheduleNextArrival() {
  const double mean_gap_ns = 1e9 / config_.request_rate;
  const auto gap = static_cast<SimDuration>(rng_.NextExp(mean_gap_ns) + 0.5);
  sim_->ScheduleAfter(gap, [this] {
    if (!running_) {
      return;
    }
    IssueRequest();
    ScheduleNextArrival();
  });
}

void ClientPool::Inject() { IssueRequest(); }

void ClientPool::InjectTo(ActorId target, MethodId method) { SendCall(target, method); }

void ClientPool::IssueRequest() {
  ActorId target = kNoActor;
  MethodId method = 0;
  if (!target_fn_(rng_, &target, &method)) {
    return;
  }
  SendCall(target, method);
}

void ClientPool::SendCall(ActorId target, MethodId method) {
  const uint64_t seq = next_seq_++;
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, seq};
  env->target = target;
  env->source_actor = kNoActor;
  env->method = method;
  env->payload_bytes = config_.request_bytes;
  env->reply_to = node_;
  env->created_at = sim_->now();

  pending_.Insert(seq, sim_->now());
  timeout_queue_.push_back({sim_->now() + config_.timeout, seq});
  issued_++;

  // Requests enter through a random gateway server.
  const auto gateway = static_cast<ServerId>(
      rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  const uint32_t bytes = env->payload_bytes;  // read before the move below
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), bytes, std::move(env));
}

void ClientPool::OnDeliver(NodeId from, uint32_t bytes, EnvelopePtr env) {
  (void)from;
  (void)bytes;
  ACTOP_CHECK(env->kind == MessageKind::kResponse);
  const SimTime* sent_at = pending_.Find(env->call_id.seq);
  if (sent_at == nullptr) {
    return;  // already timed out
  }
  latency_.Record(sim_->now() - *sent_at);
  pending_.Erase(env->call_id.seq);
  completed_++;
}

void ClientPool::SweepTimeouts() {
  const SimTime now = sim_->now();
  while (!timeout_queue_.empty() && timeout_queue_.front().first <= now) {
    const uint64_t seq = timeout_queue_.front().second;
    timeout_queue_.pop_front();
    if (pending_.Erase(seq)) {
      timeouts_++;
    }
  }
}

DirectClient::DirectClient(Simulation* sim, Cluster* cluster, uint64_t seed)
    : sim_(sim), cluster_(cluster), rng_(seed) {
  ACTOP_CHECK(sim != nullptr);
  ACTOP_CHECK(cluster != nullptr);
  node_ = cluster_->AddClientNode(this);
}

void DirectClient::Call(ActorId target, MethodId method, uint64_t app_data, uint32_t bytes,
                        std::function<void(const Response&)> on_response) {
  const uint64_t seq = next_seq_++;
  auto env = MakeEnvelope();
  env->kind = MessageKind::kCall;
  env->call_id = CallId{node_, on_response == nullptr ? 0 : seq};
  env->target = target;
  env->method = method;
  env->app_data = app_data;
  env->payload_bytes = bytes;
  env->reply_to = node_;
  env->created_at = sim_->now();
  if (on_response != nullptr) {
    pending_.emplace(seq, std::move(on_response));
  }
  const auto gateway = static_cast<ServerId>(
      rng_.NextBounded(static_cast<uint64_t>(cluster_->num_servers())));
  cluster_->network().Send(node_, cluster_->NodeOfServer(gateway), bytes, std::move(env));
}

void DirectClient::OnDeliver(NodeId from, uint32_t bytes, EnvelopePtr env) {
  (void)from;
  (void)bytes;
  auto it = pending_.find(env->call_id.seq);
  if (it == pending_.end()) {
    return;
  }
  auto on_response = std::move(it->second);
  pending_.erase(it);
  Response response;
  response.from = env->source_actor;
  response.payload_bytes = env->payload_bytes;
  on_response(response);
}

}  // namespace actop
