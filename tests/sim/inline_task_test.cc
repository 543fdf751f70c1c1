#include "src/common/inline_function.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

namespace actop {
namespace {

TEST(InlineTaskTest, DefaultIsEmpty) {
  InlineTask t;
  EXPECT_FALSE(static_cast<bool>(t));
  InlineTask n = nullptr;
  EXPECT_FALSE(static_cast<bool>(n));
}

TEST(InlineTaskTest, InvokesSmallLambdaInline) {
  int calls = 0;
  InlineTask t([&calls] { calls++; });
  ASSERT_TRUE(static_cast<bool>(t));
  EXPECT_FALSE(t.heap_allocated());
  t();
  t();
  EXPECT_EQ(calls, 2);
}

TEST(InlineTaskTest, ThisPlusSharedPtrPlusIntStaysInline) {
  // A shared-state capture shape (the fan-out counter's): [this, shared_ptr, int].
  auto payload = std::make_shared<int>(7);
  int* out = nullptr;
  int salt = 0;
  InlineTask t([&out, payload, &salt]() mutable { out = payload.get(); salt++; });
  EXPECT_FALSE(t.heap_allocated());
  t();
  EXPECT_EQ(out, payload.get());
  EXPECT_EQ(salt, 1);
}

TEST(InlineTaskTest, LargeCaptureFallsBackToHeap) {
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  uint64_t sum = 0;
  InlineTask t([a, b, c, d, e, &sum] { sum = a + b + c + d + e; });
  EXPECT_TRUE(t.heap_allocated());
  t();
  EXPECT_EQ(sum, 15u);
}

TEST(InlineTaskTest, MovePreservesCallableAndEmptiesSource) {
  auto token = std::make_shared<int>(0);
  InlineTask a([token] { (*token)++; });
  EXPECT_EQ(token.use_count(), 2);

  InlineTask b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(token.use_count(), 2);     // capture moved, not copied
  b();
  EXPECT_EQ(*token, 1);

  InlineTask c;
  c = std::move(b);
  c();
  EXPECT_EQ(*token, 2);
}

TEST(InlineTaskTest, MoveAssignDestroysPreviousTarget) {
  auto old_token = std::make_shared<int>(0);
  auto new_token = std::make_shared<int>(0);
  InlineTask t([old_token] {});
  EXPECT_EQ(old_token.use_count(), 2);
  t = InlineTask([new_token] { (*new_token)++; });
  EXPECT_EQ(old_token.use_count(), 1);  // previous capture released
  t();
  EXPECT_EQ(*new_token, 1);
}

TEST(InlineTaskTest, DestructionReleasesCapture) {
  auto token = std::make_shared<int>(0);
  {
    InlineTask t([token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineTaskTest, WrapsStdFunctionFromColdPaths) {
  int calls = 0;
  std::function<void()> fn = [&calls] { calls++; };
  InlineTask t(std::move(fn));
  t();
  EXPECT_EQ(calls, 1);
}

TEST(InlineTaskTest, MutableLambdaKeepsStateAcrossInvocations) {
  int observed = 0;
  InlineTask t([n = 0, &observed]() mutable { observed = ++n; });
  t();
  t();
  t();
  EXPECT_EQ(observed, 3);
}

TEST(InlineTaskTest, HeapCallableSurvivesMove) {
  auto token = std::make_shared<int>(0);
  uint64_t pad[4] = {1, 2, 3, 4};
  InlineTask a([token, pad] { (*token) += static_cast<int>(pad[0]); });
  EXPECT_TRUE(a.heap_allocated());
  InlineTask b = std::move(a);
  b();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 2);
}

}  // namespace
}  // namespace actop
