#include <gtest/gtest.h>

#include <thread>

#include "src/common/object_pool.h"
#include "src/common/recycling_pool.h"
#include "src/runtime/message.h"

namespace actop {
namespace {

TEST(RecyclingPoolTest, RecyclesBlocksOfTheCachedSize) {
  RecyclingBlockCache cache;
  void* first = cache.Allocate(16);
  EXPECT_EQ(cache.fresh_allocations(), 1u);
  cache.Release(first, 16);
  EXPECT_EQ(cache.cached_blocks(), 1u);
  // Same size, freed block available: the memory is handed back.
  void* second = cache.Allocate(16);
  EXPECT_EQ(second, first);
  EXPECT_EQ(cache.fresh_allocations(), 1u);
  EXPECT_EQ(cache.recycled_allocations(), 1u);
  cache.Release(second, 16);
}

TEST(RecyclingPoolTest, OtherSizesPassThrough) {
  RecyclingBlockCache cache;
  void* small = cache.Allocate(8);  // fixes the cached block size
  void* big = cache.Allocate(256);  // different size: plain new/delete
  EXPECT_EQ(cache.fresh_allocations(), 2u);
  cache.Release(small, 8);
  cache.Release(big, 256);
  EXPECT_EQ(cache.cached_blocks(), 1u);  // only the small block was cached
}

PoolStats EnvelopePoolStats() { return ObjectPool<Envelope>::Instance().stats(); }

// Runs `body` on a fresh thread, whose envelope pool starts empty, so pool
// counts do not depend on what earlier tests in the process left parked.
template <typename Fn>
void OnFreshThread(Fn body) {
  std::thread(body).join();
}

TEST(EnvelopePoolTest, RecyclesEnvelopeObjects) {
  // The pool retains the Envelope object itself (reset, capacity preserved),
  // not just its memory: releasing one envelope and asking for another must
  // hand back the same object without any construction traffic.
  OnFreshThread([] {
    Envelope* raw = nullptr;
    {
      EnvelopePtr env = MakeEnvelope();
      raw = env.get();
    }
    EXPECT_EQ(EnvelopePoolStats().fresh, 1u);
    EXPECT_EQ(EnvelopePoolStats().cached, 1u);
    EnvelopePtr env2 = MakeEnvelope();
    EXPECT_EQ(env2.get(), raw);
    EXPECT_EQ(EnvelopePoolStats().recycled, 1u);
    EXPECT_EQ(EnvelopePoolStats().cached, 0u);
  });
}

TEST(EnvelopePoolTest, RecycledControlEnvelopeLeaksNoStalePayload) {
  // Regression: an envelope that carried a populated kControl
  // PartitionExchangeRequest, recycled into a kCall, must present fully
  // reset state — kind, hops, via_network, created_at AND the control
  // variant's values (the exchange vectors keep capacity only).
  Envelope* raw = nullptr;
  {
    EnvelopePtr env = MakeEnvelope();
    raw = env.get();
    env->kind = MessageKind::kControl;
    env->hops = 3;
    env->via_network = true;
    env->created_at = 12345;
    env->reply_to = 7;
    PartitionExchangeRequest req;
    req.from_num_vertices = 99;
    req.exchange_id = 41;
    req.candidates.resize(5);
    req.candidates[0].vertex = 77;
    req.candidates[0].score = 2.5;
    env->control = std::move(req);
  }
  EnvelopePtr env2 = MakeEnvelope();
  ASSERT_EQ(env2.get(), raw);  // same object back from the pool
  EXPECT_EQ(env2->kind, MessageKind::kCall);
  EXPECT_EQ(env2->hops, 0);
  EXPECT_FALSE(env2->via_network);
  EXPECT_EQ(env2->created_at, 0);
  EXPECT_EQ(env2->reply_to, kNoNode);
  EXPECT_EQ(env2->call_id, CallId{});
  // The variant stays on the exchange alternative (capacity retention), but
  // every value in it must be reset.
  const auto* req = std::get_if<PartitionExchangeRequest>(&env2->control);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->from_num_vertices, 0);
  EXPECT_EQ(req->exchange_id, 0u);
  EXPECT_TRUE(req->candidates.empty());
  EXPECT_GE(req->candidates.capacity(), 5u);  // the point of retaining it
}

TEST(EnvelopePoolTest, RecycledResponseEnvelopeResetsAccepted) {
  Envelope* raw = nullptr;
  {
    EnvelopePtr env = MakeEnvelope();
    raw = env.get();
    env->kind = MessageKind::kControl;
    PartitionExchangeResponse resp;
    resp.rejected = true;
    resp.exchange_id = 9;
    resp.accepted = {1, 2, 3};
    env->control = std::move(resp);
  }
  EnvelopePtr env2 = MakeEnvelope();
  ASSERT_EQ(env2.get(), raw);
  const auto* resp = std::get_if<PartitionExchangeResponse>(&env2->control);
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->rejected);
  EXPECT_EQ(resp->exchange_id, 0u);
  EXPECT_TRUE(resp->accepted.empty());
  EXPECT_GE(resp->accepted.capacity(), 3u);
}

TEST(EnvelopePoolTest, EnvelopesAreFreshlyConstructed) {
  EnvelopePtr env = MakeEnvelope();
  env->kind = MessageKind::kResponse;
  env->hops = 9;
  env->payload_bytes = 123;
  env.reset();
  // A recycled envelope must look exactly like a default-constructed one.
  EnvelopePtr env2 = MakeEnvelope();
  EXPECT_EQ(env2->kind, MessageKind::kCall);
  EXPECT_EQ(env2->hops, 0);
  EXPECT_EQ(env2->payload_bytes, 0u);
  EXPECT_EQ(env2->target, kNoActor);
  EXPECT_FALSE(env2->via_network);
}

TEST(EnvelopePoolTest, SteadyStateTrafficRecycles) {
  // Warm the pool, then measure: churning envelopes one at a time must not
  // construct any new ones.
  OnFreshThread([] {
    MakeEnvelope().reset();
    const PoolStats warm = EnvelopePoolStats();
    for (int i = 0; i < 1000; i++) {
      EnvelopePtr env = MakeEnvelope();
      env->app_data = static_cast<uint64_t>(i);
    }
    EXPECT_EQ(EnvelopePoolStats().fresh, warm.fresh);
    EXPECT_EQ(EnvelopePoolStats().recycled, warm.recycled + 1000);
    EXPECT_EQ(EnvelopePoolStats().cached, 1u);
  });
}

}  // namespace
}  // namespace actop
