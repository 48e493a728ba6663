#include "common/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace osap {
namespace {

using SizeHeap = IndexedMinHeap<Bytes, JobId>;

TEST(IndexedMinHeap, TopIsTheLeastKeyThenTheLowestId) {
  SizeHeap heap;
  EXPECT_TRUE(heap.empty());
  heap.set(JobId{3}, 50);
  heap.set(JobId{1}, 70);
  heap.set(JobId{2}, 50);
  EXPECT_EQ(heap.top().id, JobId{2});
  EXPECT_EQ(heap.top().key, 50u);
  heap.set(JobId{1}, 10);  // re-key up past both
  EXPECT_EQ(heap.top().id, JobId{1});
  heap.set(JobId{1}, 90);  // and back down below them
  EXPECT_EQ(heap.top().id, JobId{2});
  heap.erase(JobId{2});
  EXPECT_EQ(heap.top().id, JobId{3});
  heap.erase(JobId{2});  // not filed: a no-op
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_FALSE(heap.contains(JobId{2}));
  EXPECT_EQ(heap.key(JobId{1}), 90u);
  EXPECT_TRUE(heap.valid());
}

// The heap against the std::set it replaces: after every step of a seeded
// random mix of inserts, re-keys up and down, and removals, the heap's top
// is the set's begin() and every filed key matches.
TEST(IndexedMinHeap, TopMatchesAnOrderedSetThroughRandomOperations) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    SizeHeap heap;
    std::set<std::pair<Bytes, JobId>> oracle;
    std::map<JobId, Bytes> filed;
    constexpr std::uint64_t kIds = 64;
    for (int step = 0; step < 20000; ++step) {
      const JobId id{rng.uniform_int(0, kIds - 1)};
      // Few distinct keys, so ties on the key are common.
      const Bytes key = rng.uniform_int(1, 40);
      const auto it = filed.find(id);
      const std::uint64_t op = rng.uniform_int(0, 3);
      if (it == filed.end()) {
        if (op == 3) {
          heap.erase(id);  // removing what is not filed changes nothing
        } else {
          heap.set(id, key);
          oracle.emplace(key, id);
          filed.emplace(id, key);
        }
      } else if (op == 3) {
        heap.erase(id);
        oracle.erase({it->second, id});
        filed.erase(it);
      } else {
        // op 0 moves the key down (toward the top), op 1 up, op 2 anywhere.
        const Bytes old = it->second;
        const Bytes next = op == 0 ? (old > 1 ? rng.uniform_int(1, old - 1) : old)
                           : op == 1 ? old + rng.uniform_int(1, 10)
                                     : key;
        heap.set(id, next);
        oracle.erase({old, id});
        oracle.emplace(next, id);
        it->second = next;
      }
      ASSERT_EQ(heap.size(), oracle.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(heap.empty(), oracle.empty());
      if (!oracle.empty()) {
        ASSERT_EQ(heap.top().id, oracle.begin()->second) << "seed " << seed << " step " << step;
        ASSERT_EQ(heap.top().key, oracle.begin()->first);
      }
      if (step % 97 == 0) {
        ASSERT_TRUE(heap.valid()) << "seed " << seed << " step " << step;
        for (const auto& [fid, fkey] : filed) {
          ASSERT_TRUE(heap.contains(fid));
          ASSERT_EQ(heap.key(fid), fkey);
        }
      }
    }
    // Drain through the top: the order is the set's.
    while (!oracle.empty()) {
      ASSERT_EQ(heap.top().id, oracle.begin()->second);
      heap.erase(heap.top().id);
      oracle.erase(oracle.begin());
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(heap.valid());
  }
}

}  // namespace
}  // namespace osap
