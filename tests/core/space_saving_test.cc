#include "src/core/space_saving.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace actop {
namespace {

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving<int> ss(10);
  for (int i = 0; i < 5; i++) {
    for (int rep = 0; rep <= i; rep++) {
      ss.Observe(i);
    }
  }
  EXPECT_EQ(ss.size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(ss.EstimateCount(i), static_cast<uint64_t>(i + 1));
  }
  for (const auto& e : ss.Entries()) {
    EXPECT_EQ(e.error, 0u);
  }
}

TEST(SpaceSavingTest, CapacityNeverExceeded) {
  SpaceSaving<int> ss(4);
  for (int i = 0; i < 100; i++) {
    ss.Observe(i);
  }
  EXPECT_EQ(ss.size(), 4u);
}

TEST(SpaceSavingTest, HeavyHitterAlwaysTracked) {
  // Classic guarantee: any key with count > N/m is in the summary.
  SpaceSaving<int> ss(10);
  Rng rng(1);
  int heavy_count = 0;
  for (int i = 0; i < 10000; i++) {
    if (rng.NextBool(0.3)) {
      ss.Observe(999);
      heavy_count++;
    } else {
      ss.Observe(static_cast<int>(rng.NextBounded(500)));
    }
  }
  ASSERT_TRUE(ss.Contains(999));
  // Estimated count over-estimates but never under-estimates.
  EXPECT_GE(ss.EstimateCount(999), static_cast<uint64_t>(heavy_count));
}

TEST(SpaceSavingTest, OverestimationBoundedByError) {
  SpaceSaving<int> ss(8);
  std::map<int, uint64_t> truth;
  Rng rng(2);
  for (int i = 0; i < 5000; i++) {
    const int key = static_cast<int>(rng.NextBounded(64));
    truth[key]++;
    ss.Observe(key);
  }
  for (const auto& e : ss.Entries()) {
    const uint64_t true_count = truth[e.key];
    EXPECT_GE(e.count, true_count);
    EXPECT_LE(e.count - true_count, e.error);
    EXPECT_LE(e.error, ss.total_observed() / ss.capacity());
  }
}

TEST(SpaceSavingTest, WeightedIncrements) {
  SpaceSaving<int> ss(4);
  ss.Observe(1, 100);
  ss.Observe(2, 5);
  EXPECT_EQ(ss.EstimateCount(1), 100u);
  EXPECT_EQ(ss.EstimateCount(2), 5u);
  EXPECT_EQ(ss.total_observed(), 105u);
}

TEST(SpaceSavingTest, EvictionReplacesMinimum) {
  SpaceSaving<int> ss(2);
  ss.Observe(1, 10);
  ss.Observe(2, 1);
  ss.Observe(3, 1);  // evicts key 2 (count 1); key 3 gets count 2, error 1
  EXPECT_TRUE(ss.Contains(1));
  EXPECT_FALSE(ss.Contains(2));
  EXPECT_TRUE(ss.Contains(3));
  EXPECT_EQ(ss.EstimateCount(3), 2u);
}

TEST(SpaceSavingTest, DecayHalvesCounts) {
  SpaceSaving<int> ss(4);
  ss.Observe(1, 10);
  ss.Observe(2, 1);
  ss.Decay();
  EXPECT_EQ(ss.EstimateCount(1), 5u);
  // Count 1 halves to 0 and the key is dropped.
  EXPECT_FALSE(ss.Contains(2));
  EXPECT_EQ(ss.total_observed(), 5u);
}

TEST(SpaceSavingTest, DecayAllowsGraphChurn) {
  // After decay, previously heavy but now-cold edges lose to new traffic.
  SpaceSaving<int> ss(4);
  for (int i = 0; i < 100; i++) {
    ss.Observe(1);
    ss.Observe(2);
    ss.Observe(3);
    ss.Observe(4);
  }
  for (int round = 0; round < 12; round++) {
    ss.Decay();
    for (int i = 0; i < 50; i++) {
      ss.Observe(10);
      ss.Observe(11);
    }
  }
  EXPECT_TRUE(ss.Contains(10));
  EXPECT_TRUE(ss.Contains(11));
  EXPECT_GT(ss.EstimateCount(10), ss.EstimateCount(1));
}

TEST(SpaceSavingTest, ForEachVisitsExactlyTheTrackedEntries) {
  // Decay frees the slab slots of entries it drops and later observations
  // reuse them; ForEach must skip the free ones and see every live entry
  // once, as Entries() does.
  SpaceSaving<int> ss(16);
  auto expect_matches_entries = [&ss](int round) {
    std::map<int, std::pair<uint64_t, uint64_t>> want;
    for (const auto& e : ss.Entries()) {
      want[e.key] = {e.count, e.error};
    }
    std::map<int, std::pair<uint64_t, uint64_t>> got;
    size_t visits = 0;
    ss.ForEach([&](const SpaceSaving<int>::Entry& e) {
      got[e.key] = {e.count, e.error};
      visits++;
    });
    EXPECT_EQ(visits, ss.size()) << "round " << round;
    EXPECT_EQ(got, want) << "round " << round;
  };
  int fresh = 100;
  for (int round = 0; round < 6; round++) {
    for (int k = 0; k < 4; k++) {
      ss.Observe(k, 8);
    }
    for (int i = 0; i < 8; i++) {
      ss.Observe(fresh++);  // count 1: the next Decay drops it
    }
    expect_matches_entries(round);
    ss.Decay();
    EXPECT_EQ(ss.size(), 4u) << "round " << round;
    expect_matches_entries(round);
  }
}

TEST(SpaceSavingTest, ClearEmptiesSummary) {
  SpaceSaving<int> ss(4);
  ss.Observe(1);
  ss.Clear();
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_EQ(ss.total_observed(), 0u);
}

TEST(SpaceSavingTest, PairKeyUsage) {
  // The edge monitor uses (vertex, vertex) keys; validate with a custom hash.
  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
      return SplitMix64(p.first ^ SplitMix64(p.second));
    }
  };
  SpaceSaving<std::pair<uint64_t, uint64_t>, PairHash> ss(8);
  ss.Observe({1, 2}, 3);
  ss.Observe({2, 1}, 4);
  EXPECT_EQ(ss.EstimateCount({1, 2}), 3u);
  EXPECT_EQ(ss.EstimateCount({2, 1}), 4u);
}

// Property sweep over random streams: for a summary of capacity k after N
// total observations, every tracked key's estimate over-approximates its true
// count by at most N/k, never under-approximates it, and every *untracked*
// key's true count is at most N/k (so no heavy hitter is ever missing).
class SpaceSavingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpaceSavingPropertyTest, OverApproximationWithinTotalOverCapacity) {
  Rng rng(GetParam());
  const size_t capacity = 2 + rng.NextBounded(30);
  const int key_space = 8 + static_cast<int>(rng.NextBounded(200));
  const int stream_len = 500 + static_cast<int>(rng.NextBounded(4000));
  const bool weighted = rng.NextBool(0.5);

  SpaceSaving<int> ss(capacity);
  std::map<int, uint64_t> truth;
  for (int i = 0; i < stream_len; i++) {
    // Mildly skewed: squaring biases draws toward small keys, so streams mix
    // heavy hitters with a long light tail.
    const auto raw = rng.NextBounded(static_cast<uint64_t>(key_space));
    const int key = static_cast<int>(raw * raw / static_cast<uint64_t>(key_space));
    const uint64_t inc = weighted ? 1 + rng.NextBounded(8) : 1;
    truth[key] += inc;
    ss.Observe(key, inc);
  }

  const uint64_t n = ss.total_observed();
  const uint64_t bound = n / ss.capacity();
  for (const auto& e : ss.Entries()) {
    const uint64_t true_count = truth[e.key];
    EXPECT_GE(e.count, true_count) << "under-approximated key " << e.key;
    EXPECT_LE(e.count - true_count, bound)
        << "key " << e.key << " over-approximated by more than N/k = " << bound;
    EXPECT_LE(e.error, bound);
  }
  for (const auto& [key, true_count] : truth) {
    if (!ss.Contains(key)) {
      EXPECT_LE(true_count, bound) << "missing heavy hitter " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, SpaceSavingPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

// Property: top-1 identification under skewed (Zipf-like) streams.
class SpaceSavingSkewTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpaceSavingSkewTest, FindsDominantKey) {
  SpaceSaving<int> ss(GetParam());
  Rng rng(7);
  for (int i = 0; i < 20000; i++) {
    // Key k occurs with probability ~ 1/2^k (geometric): key 0 dominates.
    int key = 0;
    while (key < 12 && rng.NextBool(0.5)) {
      key++;
    }
    ss.Observe(key);
  }
  const auto sorted = ss.SortedEntries();  // count desc, key asc
  ASSERT_FALSE(sorted.empty());
  EXPECT_EQ(sorted.front().key, 0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpaceSavingSkewTest, ::testing::Values(2, 4, 16, 64));

}  // namespace
}  // namespace actop
