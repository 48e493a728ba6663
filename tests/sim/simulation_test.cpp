#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace osap {
namespace {

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.at(1.0, [&] { seen.push_back(sim.now()); });
  sim.at(2.5, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  SimTime fired = -1;
  sim.at(10.0, [&] { sim.after(5.0, [&] { fired = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired, 15.0);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  SimTime fired = -1;
  sim.at(3.0, [&] { sim.after(-2.0, [&] { fired = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired, 3.0);
}

TEST(Simulation, CannotScheduleInThePast) {
  Simulation sim;
  sim.at(5.0, [&] { EXPECT_THROW(sim.at(1.0, [] {}), SimError); });
  sim.run();
}

TEST(Simulation, RunUntilStopsAndSetsClock) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelledEventDoesNotFire) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, EventsProcessedCounts) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulation, StepReturnsFalseWhenDrained) {
  Simulation sim;
  sim.at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, CascadingEventsKeepDeterministicOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(1.0, [&] {
    order.push_back(1);
    sim.after(0, [&] { order.push_back(3); });
  });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// run_until() moves the clock past the last fired event; an after(d) on a
// declared delay made then still lands at or after the lane's tail, and
// ties with heap events fire in push order.
TEST(Simulation, FixedDelayKeepsOrderAcrossRunUntil) {
  Simulation sim;
  sim.declare_fixed_delay(3.0);
  std::vector<std::pair<SimTime, int>> fired;
  const auto note = [&](int tag) {
    return [&fired, &sim, tag] { fired.emplace_back(sim.now(), tag); };
  };
  sim.at(1.0, [&] { sim.after(3.0, note(1)); });  // lane, t = 4
  sim.at(5.5, note(2));                           // heap
  sim.run_until(2.5);
  sim.after(3.0, note(3));  // lane, t = 5.5: ties with 2, pushed after it
  sim.after(1.0, note(4));  // heap, t = 3.5
  sim.run_until(4.0);
  sim.after(3.0, note(5));  // lane, t = 7
  sim.at(7.0, note(6));     // heap, t = 7, pushed after 5
  sim.run();
  const std::vector<std::pair<SimTime, int>> expected = {{3.5, 4}, {4.0, 1}, {5.5, 2},
                                                         {5.5, 3}, {7.0, 5}, {7.0, 6}};
  EXPECT_EQ(fired, expected);
  EXPECT_THROW(sim.declare_fixed_delay(-1.0), SimError);
  EXPECT_THROW(sim.declare_fixed_delay(kTimeNever), SimError);
}

// Heartbeat-shaped traffic: trackers beat every 3 s, each beat sends a
// 0.5 ms message, and deliveries answer, reset another tracker's timer,
// or schedule heap events (some at exactly a lane entry's time). The
// clock is driven in run_until() slices with pushes between them.
class HeartbeatTraffic {
 public:
  explicit HeartbeatTraffic(bool declare) {
    if (declare) {
      sim_.declare_fixed_delay(3.0);
      sim_.declare_fixed_delay(ms(0.5));
    }
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      timers_[i] = sim_.after(0.01 * static_cast<double>(i), [this, i] { beat(i); });
    }
    for (SimTime t = 7.3; t < 110.0; t += 7.3) {
      sim_.run_until(t);
      sim_.after(3.0, [this] { note(5000); });
      sim_.after(ms(0.5), [this] { note(5001); });
    }
    sim_.run();
  }

  [[nodiscard]] const std::vector<std::pair<SimTime, std::uint64_t>>& fired() const {
    return fired_;
  }
  [[nodiscard]] std::uint64_t digest() const { return sim_.trace_digest(); }

 private:
  void beat(std::size_t i) {
    note(i);
    timers_[i] = sim_.now() < 100.0 ? sim_.after(3.0, [this, i] { beat(i); }) : 0;
    sim_.after(ms(0.5), [this, i] { deliver(i); });
  }

  void deliver(std::size_t i) {
    note(1000 + i);
    const double dice = rng_.uniform();
    if (dice < 0.3) {
      sim_.after(ms(0.5), [this, i] { note(2000 + i); });
    } else if (dice < 0.4) {
      const std::size_t j = rng_.uniform_int(0, timers_.size() - 1);
      if (timers_[j] != 0) {
        sim_.cancel(timers_[j]);
        timers_[j] = sim_.after(3.0, [this, j] { beat(j); });
      }
    } else if (dice < 0.5) {
      sim_.after(rng_.uniform(0.0, 2.0), [this, i] { note(3000 + i); });
    } else if (dice < 0.6) {
      sim_.at(sim_.now() + 3.0, [this, i] { note(4000 + i); });
    }
  }

  void note(std::uint64_t tag) { fired_.emplace_back(sim_.now(), tag); }

  Simulation sim_;
  Rng rng_{5};
  std::array<EventId, 40> timers_{};
  std::vector<std::pair<SimTime, std::uint64_t>> fired_;
};

// Declaring a delay moves its events from the heap to a lane and changes
// nothing else: the same events fire at the same times in the same order,
// under the same sequences (the digest folds them).
TEST(Simulation, DeclaredFixedDelaysFireInTheUndeclaredOrder) {
  const HeartbeatTraffic heap(false);
  const HeartbeatTraffic lanes(true);
  EXPECT_GT(heap.fired().size(), 3000u);
  EXPECT_EQ(lanes.fired(), heap.fired());
  EXPECT_EQ(lanes.digest(), heap.digest());
}

}  // namespace
}  // namespace osap
