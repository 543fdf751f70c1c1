#include "src/net/network.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/object_pool.h"
#include "src/common/sim_time.h"
#include "src/runtime/message.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

struct Delivery {
  NodeId from = kNoNode;
  uint32_t bytes = 0;
  SimTime at = -1;
  uint64_t app_data = 0;
};

// Records every message delivered to its node, then drops the envelope.
class RecordingEndpoint : public Network::Endpoint {
 public:
  explicit RecordingEndpoint(const Simulation* sim) : sim_(sim) {}

  void OnDeliver(NodeId from, uint32_t bytes, EnvelopePtr msg) override {
    deliveries.push_back(Delivery{from, bytes, sim_->now(), msg->app_data});
  }

  std::vector<Delivery> deliveries;

 private:
  const Simulation* sim_;
};

PoolStats EnvelopePoolStats() { return ObjectPool<Envelope>::Instance().stats(); }

TEST(NetworkTest, DeliversWithLatency) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = Micros(250), .ns_per_byte = 0.0});
  RecordingEndpoint receiver(&sim);
  RecordingEndpoint sender_end(&sim);
  net.AddNode(&receiver);
  const NodeId sender = net.AddNode(&sender_end);
  net.Send(sender, 0, 100, MakeEnvelope());
  sim.Run();
  ASSERT_EQ(receiver.deliveries.size(), 1u);
  EXPECT_EQ(receiver.deliveries[0].at, Micros(250));
  EXPECT_EQ(receiver.deliveries[0].from, sender);
  EXPECT_TRUE(sender_end.deliveries.empty());
}

TEST(NetworkTest, BandwidthTermScalesWithBytes) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = 0, .ns_per_byte = 8.0});
  RecordingEndpoint receiver(&sim);
  RecordingEndpoint sender_end(&sim);
  net.AddNode(&receiver);
  const NodeId sender = net.AddNode(&sender_end);
  net.Send(sender, 0, 1000, MakeEnvelope());
  sim.Run();
  ASSERT_EQ(receiver.deliveries.size(), 1u);
  EXPECT_EQ(receiver.deliveries[0].at, Nanos(8000));
}

TEST(NetworkTest, PayloadPassedThrough) {
  Simulation sim;
  Network net(&sim, NetworkConfig{});
  RecordingEndpoint receiver(&sim);
  net.AddNode(&receiver);
  EnvelopePtr env = MakeEnvelope();
  env->app_data = 42;
  net.Send(0, 0, 10, std::move(env));
  sim.Run();
  ASSERT_EQ(receiver.deliveries.size(), 1u);
  EXPECT_EQ(receiver.deliveries[0].app_data, 42u);
  EXPECT_EQ(receiver.deliveries[0].bytes, 10u);
}

TEST(NetworkTest, CountsMessagesAndBytes) {
  Simulation sim;
  Network net(&sim, NetworkConfig{});
  RecordingEndpoint receiver(&sim);
  net.AddNode(&receiver);
  net.Send(0, 0, 100, MakeEnvelope());
  net.Send(0, 0, 200, MakeEnvelope());
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.total_bytes(), 300u);
  sim.Run();
}

TEST(NetworkTest, InterleavedDeliveryOrder) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = Micros(100), .ns_per_byte = 8.0});
  RecordingEndpoint receiver(&sim);
  net.AddNode(&receiver);
  // A big message sent first arrives after a small one sent at the same time.
  net.Send(0, 0, 100000, MakeEnvelope());  // +800 µs wire
  net.Send(0, 0, 10, MakeEnvelope());
  sim.Run();
  ASSERT_EQ(receiver.deliveries.size(), 2u);
  EXPECT_EQ(receiver.deliveries[0].bytes, 10u);
  EXPECT_EQ(receiver.deliveries[1].bytes, 100000u);
}

TEST(NetworkTest, DroppedEnvelopeReturnsToPool) {
  // On a fresh thread, whose envelope pool starts empty, so the counts below
  // do not depend on what earlier tests left parked.
  std::thread([] {
    Simulation sim;
    Network net(&sim, NetworkConfig{});
    RecordingEndpoint receiver(&sim);
    net.AddNode(&receiver);
    net.set_fault_injector([](NodeId, NodeId, uint32_t, int, SimTime) {
      return FaultDecision{.drop = true};
    });
    EnvelopePtr env = MakeEnvelope();
    Envelope* raw = env.get();
    net.Send(0, 0, 100, std::move(env));
    // The drop released the envelope on the spot: it is parked, and the
    // next acquisition hands the same object back.
    EXPECT_EQ(EnvelopePoolStats().cached, 1u);
    EXPECT_EQ(net.dropped_messages(), 1u);
    EXPECT_EQ(MakeEnvelope().get(), raw);
    sim.Run();
    EXPECT_TRUE(receiver.deliveries.empty());
  }).join();
}

// Runs on shard 1's worker thread: notes the thread and the thread's pool
// around the release of the delivered envelope.
class ReleasingEndpoint : public Network::Endpoint {
 public:
  void OnDeliver(NodeId, uint32_t, EnvelopePtr msg) override {
    thread = std::this_thread::get_id();
    raw = msg.get();
    cached_before = EnvelopePoolStats().cached;
    msg.reset();
    cached_after = EnvelopePoolStats().cached;
    reacquired = MakeEnvelope().get();
  }

  std::thread::id thread;
  Envelope* raw = nullptr;
  Envelope* reacquired = nullptr;
  size_t cached_before = 0;
  size_t cached_after = 0;
};

TEST(NetworkShardedTest, CrossShardEnvelopeParksInReleasingThreadPool) {
  ShardedEngine engine(ShardedEngineConfig{.shards = 2});
  Network net(&engine, NetworkConfig{});
  RecordingEndpoint sender_end(&engine.shard(0));
  ReleasingEndpoint receiver;
  const NodeId sender = net.AddNode(&sender_end, 0);
  const NodeId dest = net.AddNode(&receiver, 1);

  Envelope* sent = nullptr;
  size_t sender_cached_after_send = 0;
  engine.shard(0).ScheduleAt(0, [&] {
    EnvelopePtr env = MakeEnvelope();
    sent = env.get();
    net.Send(sender, dest, 100, std::move(env));
    sender_cached_after_send = EnvelopePoolStats().cached;
  });
  engine.RunUntil(Millis(5));

  // Shard 0's worker is the calling thread; the release happened on shard 1's.
  EXPECT_NE(receiver.thread, std::this_thread::get_id());
  ASSERT_EQ(receiver.raw, sent);
  EXPECT_EQ(receiver.cached_after, receiver.cached_before + 1);
  EXPECT_EQ(receiver.reacquired, sent);
  // The sending thread's pool never saw the envelope come back.
  EXPECT_EQ(EnvelopePoolStats().cached, sender_cached_after_send);
}

}  // namespace
}  // namespace actop
