#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/det.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace osap {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(2.0, [&] { fired.push_back(2); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(3.0, [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) q.push(1.0, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.push(1.0, [] {});
  q.cancel(999);
  q.cancel(0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, EmptyNextTimeIsNever) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, RejectsInfiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.push(kTimeNever, [] {}), SimError);
  EXPECT_THROW(q.push(-1.0, [] {}), SimError);
}

TEST(EventQueue, PopReportsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(4.5, [] {});
  auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 4.5);
  EXPECT_EQ(fired.id, id);
}

// A cancellation storm must neither leak closures nor let tombstones
// accumulate without bound: cancel() frees the closure eagerly (the
// shared_ptr's count drops at the cancel, not at the would-be fire
// time), and re-heapifying keeps cancelled heap entries below the live
// population once enough have piled up.
TEST(EventQueue, CancellationStormReleasesClosuresAndCompacts) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(42);
  std::vector<EventId> doomed;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const SimTime t = rng.uniform(0.0, 1000.0);
    if (i % 2 == 0) {
      doomed.push_back(q.push(t, [sentinel] { (void)*sentinel; }));
    } else {
      q.push(t, [] {});
    }
  }
  EXPECT_EQ(sentinel.use_count(), 1 + 5000);
  for (const EventId id : doomed) q.cancel(id);
  // Every captured copy was destroyed at cancel time, before any pop.
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(q.pending(), 5000u);
  // Tombstones are bounded: the survivors are re-heapified once the
  // tombstones outnumber them (with a small floor so tiny queues skip
  // the churn).
  EXPECT_LE(q.cancelled_entries(), q.pending());
  SimTime last = 0;
  std::size_t fired = 0;
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
    ++fired;
  }
  EXPECT_EQ(fired, 5000u);
  EXPECT_EQ(q.cancelled_entries(), 0u);
}

// Differential check against the textbook reference: a binary heap over
// (time, id) with FIFO tie-breaking. Pushes, cancels, and pops must drain
// in exactly the reference order — the property the trace digests of
// whole simulations rest on. Handles order by their sequence, so the
// reference can compare them directly.
class Differential {
 public:
  EventId push(SimTime t) {
    const EventId id = q_.push(t, [] {});
    ref_.emplace(t, id);
    return id;
  }

  void cancel(EventId id) {
    q_.cancel(id);
    // The reference has no O(1) cancel; rebuild without the id.
    std::vector<Ref> keep;
    while (!ref_.empty()) {
      if (ref_.top().second != id) keep.push_back(ref_.top());
      ref_.pop();
    }
    for (const Ref& r : keep) ref_.push(r);
  }

  EventQueue::Fired pop() {
    auto ev = q_.pop();
    drained_q_.emplace_back(ev.time, ev.id);
    drained_ref_.push_back(ref_.top());
    ref_.pop();
    return ev;
  }

  [[nodiscard]] bool in_step() const { return q_.pending() == ref_.size(); }
  [[nodiscard]] bool empty() const { return ref_.empty(); }

  void drain_and_compare() {
    while (!q_.empty()) pop();
    ASSERT_TRUE(ref_.empty());
    ASSERT_EQ(drained_q_.size(), drained_ref_.size());
    for (std::size_t i = 0; i < drained_q_.size(); ++i) {
      ASSERT_EQ(drained_q_[i].first, drained_ref_[i].first) << "at pop " << i;
      ASSERT_EQ(drained_q_[i].second, drained_ref_[i].second) << "at pop " << i;
    }
  }

 private:
  using Ref = std::pair<SimTime, EventId>;
  EventQueue q_;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref_;
  std::vector<Ref> drained_q_;
  std::vector<Ref> drained_ref_;
};

TEST(EventQueue, RandomizedDifferentialAgainstBinaryHeap) {
  {
    SCOPED_TRACE("random push/cancel/pop mix");
    Differential d;
    std::vector<EventId> alive;
    Rng rng(11);
    for (int round = 0; round < 20000; ++round) {
      const double dice = rng.uniform();
      if (dice < 0.55 || d.empty()) {
        // Cluster times onto a coarse grid so ties (and their FIFO order)
        // are actually exercised, not just distinct doubles.
        const SimTime t = static_cast<SimTime>(rng.uniform_int(0, 5000)) * 0.25;
        alive.push_back(d.push(t));
      } else if (dice < 0.8 && !alive.empty()) {
        const std::size_t pick = rng.uniform_int(0, alive.size() - 1);
        const EventId id = alive[pick];
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        d.cancel(id);
      } else {
        std::erase(alive, d.pop().id);
      }
      ASSERT_TRUE(d.in_step());
    }
    d.drain_and_compare();
  }
  {
    // The warehouse shape: ~1,000 heartbeat timers, each re-armed 3 s
    // ahead when it fires, over ~2,000 job arrivals spread across a 600 s
    // window. Heartbeat phases sit on a 10 ms grid, so many heartbeats
    // tie with each other on every round.
    SCOPED_TRACE("warehouse-shaped timer population");
    Differential d;
    std::set<EventId> heartbeats;
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
      heartbeats.insert(d.push(static_cast<SimTime>(rng.uniform_int(0, 299)) * 0.01));
    }
    for (int i = 0; i < 2000; ++i) d.push(rng.uniform(0.0, 600.0));
    while (!d.empty()) {
      const auto ev = d.pop();
      if (heartbeats.erase(ev.id) > 0 && ev.time < 600.0) {
        heartbeats.insert(d.push(ev.time + 3.0));
      }
      ASSERT_TRUE(d.in_step());
    }
    d.drain_and_compare();
  }
}

// A handle outlives its event: after A fires, B may take A's slot. A's
// handle names the same slot under an older sequence, so cancelling it
// must leave B alone.
TEST(EventQueue, StaleHandleAfterSlotReuseIsNoop) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  EXPECT_EQ(q.pop().id, a);
  bool b_fired = false;
  const EventId b = q.push(2.0, [&] { b_fired = true; });
  ASSERT_NE(a, b);
  ASSERT_EQ(a & 0xffffffffu, b & 0xffffffffu) << "B should reuse A's slot";
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_entries(), 0u);
  auto ev = q.pop();
  EXPECT_EQ(ev.id, b);
  ev.fn();
  EXPECT_TRUE(b_fired);
}

// Handles push() never issued: the 0 sentinel, a small integer, a slot
// past the arena, and the live event's slot under another sequence.
TEST(EventQueue, CancelOfNeverIssuedHandlesIsNoop) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  const EventId slot = id & 0xffffffffu;
  const EventId seq = id >> 32;
  for (const EventId bogus : {EventId{0}, EventId{999}, (seq << 32) | (slot + 7),
                              ((seq + 1) << 32) | slot}) {
    q.cancel(bogus);
    EXPECT_EQ(q.pending(), 1u) << "handle " << bogus;
  }
  EXPECT_EQ(q.cancelled_entries(), 0u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

// Fired::seq numbers pushes from 1 in insertion order, whatever slot an
// event landed in, and Simulation's trace digest folds exactly it.
TEST(EventQueue, FiredReportsTheSequenceTheDigestFolds) {
  EventQueue q;
  q.push(1.0, [] {});
  q.pop();  // frees slot 0 for reuse below
  q.push(3.0, [] {});
  q.push(2.0, [] {});
  const auto first = q.pop();
  const auto second = q.pop();
  EXPECT_EQ(first.seq, 3u);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(first.seq, first.id >> 32);

  Simulation sim;
  sim.at(2.0, [] {});
  sim.at(1.0, [] {});
  sim.at(2.0, [] {});
  sim.run();
  det::Fnv1a expected;
  const std::pair<SimTime, std::uint64_t> fired_order[] = {{1.0, 2}, {2.0, 1}, {2.0, 3}};
  for (const auto& [t, seq] : fired_order) {
    expected.mix(t);
    expected.mix(seq);
  }
  EXPECT_EQ(sim.trace_digest(), expected.value());
}

}  // namespace
}  // namespace osap
