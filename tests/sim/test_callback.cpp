#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

namespace powertcp::sim {
namespace {

TEST(Callback, DefaultIsEmpty) {
  Callback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  Callback null_cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_cb));
}

TEST(Callback, InvokesStoredLambda) {
  int hits = 0;
  Callback cb = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(Callback, MoveTransfersOwnership) {
  int hits = 0;
  Callback a = [&hits] { ++hits; };
  Callback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(Callback, MoveAssignReleasesPreviousTarget) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  Callback holder = [token] { (void)*token; };
  token.reset();
  EXPECT_FALSE(alive.expired());  // the closure keeps it alive
  int hits = 0;
  holder = Callback([&hits] { ++hits; });
  EXPECT_TRUE(alive.expired());  // old closure destroyed on assignment
  holder();
  EXPECT_EQ(hits, 1);
}

TEST(Callback, EmplaceConstructsInPlaceAndReplacesTheTarget) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> alive = token;
  Callback cb;
  cb.emplace([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(alive.expired());
  int hits = 0;
  cb.emplace([&hits] { ++hits; });
  EXPECT_TRUE(alive.expired());  // the old closure was destroyed first
  cb();
  // A Callback argument is moved in, leaving its source empty.
  Callback other = [&hits] { hits += 10; };
  cb.emplace(std::move(other));
  EXPECT_FALSE(static_cast<bool>(other));  // NOLINT(bugprone-use-after-move)
  cb();
  EXPECT_EQ(hits, 11);
}

TEST(Callback, ResetAndNullptrAssignmentDestroyTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  Callback cb = [token] { (void)token; };
  token.reset();
  EXPECT_FALSE(alive.expired());
  cb = nullptr;
  EXPECT_TRUE(alive.expired());
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(Callback, DestructorDestroysTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  {
    Callback cb = [token] { (void)token; };
    token.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(Callback, HoldsAStdFunctionCopy) {
  // The engine's recursive-scheduling idiom: a std::function rescheduled
  // by copy from inside its own invocation must fit inline.
  static_assert(sizeof(std::function<void()>) <= Callback::kCapacity);
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Callback cb = fn;
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(Callback, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  int got = 0;
  Callback cb = [p = std::move(p), &got] { got = *p + 1; };
  cb();
  EXPECT_EQ(got, 42);
}

TEST(Callback, CapacityHoldsTheHotPathClosures) {
  // The per-packet closures capture (this, pool handle): must fit with
  // lots of headroom, as must a typical harness capture set.
  struct Handle {
    std::uint32_t a, b;
  };
  void* self = nullptr;
  auto tx = [self, h = Handle{1, 2}] { (void)self, (void)h; };
  static_assert(sizeof(tx) <= Callback::kCapacity);
  Callback cb = tx;
  cb();
}

}  // namespace
}  // namespace powertcp::sim
