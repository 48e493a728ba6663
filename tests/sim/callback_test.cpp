#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace osap {
namespace {

TEST(Callback, SmallClosuresLiveInlineAndLargeOnesOnTheHeap) {
  int hits = 0;
  Callback small = [&hits] { ++hits; };
  EXPECT_TRUE(static_cast<bool>(small));
  EXPECT_FALSE(small.on_heap());

  std::array<char, Callback::kInlineBytes + 1> big{};
  big[0] = 2;
  Callback large = [&hits, big] { hits += big[0]; };
  EXPECT_TRUE(large.on_heap());

  small();
  large();
  EXPECT_EQ(hits, 3);
  EXPECT_FALSE(static_cast<bool>(Callback{}));
}

TEST(Callback, InlineBufferHoldsAClosureOfExactlyItsSize) {
  struct Exact {
    std::array<unsigned char, Callback::kInlineBytes - sizeof(int*)> pad{};
    int* out;
    void operator()() const { *out = 7; }
  };
  static_assert(sizeof(Exact) == Callback::kInlineBytes);
  int out = 0;
  Callback cb = Exact{{}, &out};
  EXPECT_FALSE(cb.on_heap());
  cb();
  EXPECT_EQ(out, 7);
}

TEST(Callback, MoveOnlyCaptureMovesWithTheCallback) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Callback a = [p = std::move(owned), &seen] { seen = ++*p; };
  EXPECT_FALSE(a.on_heap());
  Callback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty
  b();
  EXPECT_EQ(seen, 42);
  Callback c;
  c = std::move(b);
  c();
  EXPECT_EQ(seen, 43);
}

TEST(Callback, CapturesAreDestroyedOnceWhereverTheyLive) {
  auto sentinel = std::make_shared<int>(0);
  std::array<char, 2 * Callback::kInlineBytes> big{};
  {
    Callback inline_cb = [sentinel] { ++*sentinel; };
    Callback heap_cb = [sentinel, big] { *sentinel += 1 + big[0]; };
    EXPECT_FALSE(inline_cb.on_heap());
    EXPECT_TRUE(heap_cb.on_heap());
    EXPECT_EQ(sentinel.use_count(), 3);
    Callback moved_inline = std::move(inline_cb);
    Callback moved_heap = std::move(heap_cb);
    EXPECT_EQ(sentinel.use_count(), 3);
    moved_inline();
    moved_heap();
    moved_heap = nullptr;  // releases at once
    EXPECT_EQ(sentinel.use_count(), 2);
  }
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(*sentinel, 2);
}

TEST(Callback, CancelDestroysInlineAndHeapCapturesAtOnce) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(0);
  std::array<char, 2 * Callback::kInlineBytes> big{};
  const EventId small = q.push(1.0, [sentinel] { ++*sentinel; });
  const EventId large = q.push(2.0, [sentinel, big] { *sentinel += 1 + big[0]; });
  EXPECT_EQ(sentinel.use_count(), 3);
  q.cancel(small);
  EXPECT_EQ(sentinel.use_count(), 2);
  q.cancel(large);
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(*sentinel, 0);
}

// Closures that own heap memory survive the slot arena's growth: the
// arena moves them when it reallocates.
TEST(Callback, OwningClosuresSurviveArenaGrowth) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    std::vector<int> payload(3, i);
    q.push(static_cast<SimTime>(i), [&fired, payload = std::move(payload)] {
      fired.push_back(payload[0] + payload[1] + payload[2]);
    });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], 3 * i);
}

}  // namespace
}  // namespace osap
