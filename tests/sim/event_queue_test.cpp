#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <iterator>
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

  EventQueue::Lane add_lane() { return q_.add_lane(); }

  EventId push(EventQueue::Lane lane, SimTime t) {
    const EventId id = q_.push(lane, t, [] {});
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
  {
    // A smaller population the way Simulation queues it: the first
    // heartbeats and the arrivals sit on the heap, every re-arm goes
    // through a 3 s lane, and each heartbeat sends a message through a
    // 0.5 ms lane whose delivery may answer through it again. Some
    // deliveries cancel a heartbeat and re-arm it (an out-of-band
    // report) or cancel an arrival; others schedule a heap event. Some
    // heap events land at exactly a lane's time, pushed between lane
    // entries that tie with them, so ties across heap and lane must
    // break by sequence.
    SCOPED_TRACE("heartbeats and messages through 3 s and 0.5 ms lanes");
    Differential d;
    const EventQueue::Lane beat = d.add_lane();
    const EventQueue::Lane wire = d.add_lane();
    std::set<EventId> heartbeats;
    std::set<EventId> messages;
    std::vector<EventId> arrivals;
    Rng rng(29);
    for (int i = 0; i < 250; ++i) {
      heartbeats.insert(d.push(static_cast<SimTime>(rng.uniform_int(0, 299)) * 0.01));
    }
    for (int i = 0; i < 500; ++i) arrivals.push_back(d.push(rng.uniform(0.0, 300.0)));
    std::size_t lane_pops = 0;
    std::size_t cancels = 0;
    while (!d.empty()) {
      const auto ev = d.pop();
      if (heartbeats.erase(ev.id) > 0) {
        if (ev.time < 300.0) {
          heartbeats.insert(d.push(beat, ev.time + 3.0));
          messages.insert(d.push(wire, ev.time + 0.0005));
          if (rng.uniform() < 0.1) arrivals.push_back(d.push(ev.time + 3.0));
        }
      } else if (messages.erase(ev.id) > 0) {
        ++lane_pops;
        const double dice = rng.uniform();
        if (dice < 0.5) {
          messages.insert(d.push(wire, ev.time + 0.0005));
        } else if (dice < 0.52 && !heartbeats.empty()) {
          const auto victim = std::next(
              heartbeats.begin(),
              static_cast<std::ptrdiff_t>(rng.uniform_int(0, heartbeats.size() - 1)));
          d.cancel(*victim);
          heartbeats.erase(victim);
          heartbeats.insert(d.push(beat, ev.time + 3.0));
          ++cancels;
        } else if (dice < 0.54 && !arrivals.empty()) {
          const std::size_t pick = rng.uniform_int(0, arrivals.size() - 1);
          d.cancel(arrivals[pick]);
          arrivals.erase(arrivals.begin() + static_cast<std::ptrdiff_t>(pick));
          ++cancels;
        } else if (dice < 0.64) {
          arrivals.push_back(d.push(ev.time + rng.uniform(0.0, 5.0)));
        } else if (dice < 0.7) {
          arrivals.push_back(d.push(ev.time + 0.0005));
        }
      } else {
        std::erase(arrivals, ev.id);
      }
      ASSERT_TRUE(d.in_step());
    }
    d.drain_and_compare();
    EXPECT_GT(lane_pops, 25000u);
    EXPECT_GT(cancels, 500u);
  }
}

// A lane is sorted only because its pushes never go back in time; one
// that would is rejected before it takes a sequence or a slot. Equal
// times are fine (they fire in push order), and the heap still accepts
// any time.
TEST(EventQueue, LanePushEarlierThanItsTailIsRejected) {
  EventQueue q;
  const EventQueue::Lane lane = q.add_lane();
  const EventId first = q.push(lane, 2.0, [] {});
  EXPECT_THROW(q.push(lane, 1.0, [] {}), SimError);
  EXPECT_EQ(q.pending(), 1u);
  const EventId tie = q.push(lane, 2.0, [] {});
  const EventId heap = q.push(1.0, [] {});
  EXPECT_THROW(q.push(lane + 1, 3.0, [] {}), SimError);
  EXPECT_EQ(q.pop().id, heap);
  EXPECT_EQ(q.pop().id, first);
  EXPECT_EQ(q.pop().id, tie);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
}

// Cancels through lanes free their closures at once, and the tombstone
// bound counts the heap and the lanes together: after any cancel,
// tombstones are under the floor or no more than the live events.
TEST(EventQueue, CancellationStormThroughALaneReleasesClosuresAndCompacts) {
  EventQueue q;
  const EventQueue::Lane lane = q.add_lane();
  auto sentinel = std::make_shared<int>(42);
  std::vector<EventId> doomed;
  Rng rng(13);
  SimTime tail = 0;
  for (int i = 0; i < 10000; ++i) {
    tail += rng.uniform(0.0, 0.2);
    if (i % 3 == 0) {
      doomed.push_back(q.push(rng.uniform(0.0, 1000.0), [sentinel] { (void)*sentinel; }));
    } else if (i % 3 == 1) {
      doomed.push_back(q.push(lane, tail, [sentinel] { (void)*sentinel; }));
    } else {
      q.push(lane, tail, [] {});
    }
  }
  const std::size_t survivors = q.pending() - doomed.size();
  EXPECT_EQ(sentinel.use_count(), static_cast<long>(1 + doomed.size()));
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    q.cancel(doomed[i]);
    EXPECT_EQ(sentinel.use_count(), static_cast<long>(doomed.size() - i));
    ASSERT_TRUE(q.cancelled_entries() < 64 || q.cancelled_entries() <= q.pending())
        << q.cancelled_entries() << " tombstones over " << q.pending() << " live events";
  }
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(q.pending(), survivors);
  EXPECT_EQ(q.pending_events().size(), survivors);
  SimTime last = 0;
  std::size_t fired = 0;
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    // Compaction that missed a lane would leave tombstones it no longer
    // counts; pruning them later would drive the count below zero.
    ASSERT_LE(q.cancelled_entries(), doomed.size());
    last = ev.time;
    ++fired;
  }
  EXPECT_EQ(fired, survivors);
  EXPECT_EQ(q.cancelled_entries(), 0u);
}

// A lane pop sifts nothing, so it reports no queue work; a tombstone
// pruned off a lane front counts one, as one pruned off the heap does.
TEST(EventQueue, LanePopsReportOnlyPrunedTombstonesAsWork) {
  EventQueue q;
  const EventQueue::Lane lane = q.add_lane();
  const EventId doomed = q.push(lane, 1.0, [] {});
  q.push(lane, 2.0, [] {});
  q.push(lane, 3.0, [] {});
  q.cancel(doomed);
  EXPECT_EQ(q.pending_events().size(), 2u);
  EXPECT_EQ(q.pop().work, 1u);
  EXPECT_EQ(q.pop().work, 0u);
  EXPECT_TRUE(q.empty());
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
