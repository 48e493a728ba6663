// The preemption core the four preempting schedulers share
// (src/sched/preempting.hpp).
#include "sched/preempting.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "sched/capacity.hpp"
#include "sched/deadline.hpp"
#include "sched/fair.hpp"
#include "sched/hfsp.hpp"
#include "trace/names.hpp"
#include "workload/profiles.hpp"
#include "workload/swim.hpp"

namespace osap {
namespace {

/// Runs a contended 16-job trace on 4 nodes under `S` with primitive=wait.
template <typename S>
void expect_waits_are_not_preemptions(const char* name, typename S::Options options) {
  SCOPED_TRACE(name);
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  options.primitive = PreemptPrimitive::Wait;
  auto sched = std::make_unique<S>(std::move(options));
  const S* scheduler = sched.get();
  cluster.set_scheduler(std::move(sched));
  SwimConfig swim;
  swim.jobs = 16;
  Rng rng(8);
  std::size_t index = 0;
  for (SwimJob& job : generate_swim_trace(swim, rng)) {
    job.spec.queue = index++ % 2 == 0 ? "prod" : "batch";
    job.spec.deadline = job.arrival + 60.0 * static_cast<double>(job.spec.tasks.size());
    cluster.submit_at(job.arrival, std::move(job.spec));
  }
  cluster.run();
  EXPECT_GT(cluster.sim().trace().counters().value(trace::names::kPolicyWaits), 0u);
  EXPECT_EQ(scheduler->preemptions_issued(), 0);
}

// A Wait order displaces nothing, so it is not a preemption: each
// preempting scheduler reports none issued, while its policy engine
// still counts the wait decisions.
TEST(PreemptingScheduler, WaitOrdersAreNotPreemptions) {
  expect_waits_are_not_preemptions<FairScheduler>("fair", {});
  CapacityScheduler::Options capacity;
  capacity.queues = {{"prod", 0.5}, {"batch", 0.5}};
  expect_waits_are_not_preemptions<CapacityScheduler>("capacity", capacity);
  expect_waits_are_not_preemptions<HfspScheduler>("hfsp", {});
  expect_waits_are_not_preemptions<DeadlineScheduler>("deadline", {});
}

}  // namespace
}  // namespace osap
