#include "sched/capacity.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "hadoop/events.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

CapacityScheduler::Options two_queue_options() {
  CapacityScheduler::Options options;
  options.queues = {{"prod", 0.5}, {"research", 0.5}};
  options.preemption_timeout = seconds(10);
  options.primitive = PreemptPrimitive::Suspend;
  return options;
}

TEST(Capacity, RejectsBadConfigs) {
  CapacityScheduler::Options empty;
  empty.queues.clear();
  EXPECT_THROW(CapacityScheduler{empty}, SimError);

  CapacityScheduler::Options over;
  over.queues = {{"a", 0.7}, {"b", 0.7}};
  EXPECT_THROW(CapacityScheduler{over}, SimError);
}

TEST(Capacity, UnknownQueueRejectedAtSubmit) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<CapacityScheduler>(two_queue_options()));
  JobSpec spec = single_task_job("x", 0, light_map_task());
  spec.queue = "nonexistent";
  EXPECT_THROW(cluster.submit(spec), SimError);
}

TEST(Capacity, ElasticBorrowWhenOtherQueueIdle) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<CapacityScheduler>(two_queue_options()));
  // Two research jobs, prod idle: research may borrow prod's slot and run
  // both tasks in parallel.
  JobId a{}, b{};
  cluster.sim().at(0.05, [&] {
    JobSpec spec = single_task_job("r1", 0, light_map_task());
    spec.queue = "research";
    a = cluster.submit(spec);
  });
  cluster.sim().at(0.10, [&] {
    JobSpec spec = single_task_job("r2", 0, light_map_task());
    spec.queue = "research";
    b = cluster.submit(spec);
  });
  cluster.run();
  // Parallel execution: both finish around one task duration.
  EXPECT_LT(cluster.job_tracker().job(a).sojourn(), 95.0);
  EXPECT_LT(cluster.job_tracker().job(b).sojourn(), 95.0);
}

TEST(Capacity, GuaranteeReclaimedByPreemption) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  auto sched = std::make_unique<CapacityScheduler>(two_queue_options());
  CapacityScheduler* cap = sched.get();
  cluster.set_scheduler(std::move(sched));

  // Research borrows both slots, then a prod job arrives: prod's
  // guarantee (1 slot) must come back via suspension.
  for (int i = 0; i < 2; ++i) {
    cluster.sim().at(0.05 + 0.05 * i, [&cluster, i] {
      // Named local sidesteps GCC 12's -Wrestrict false positive on
      // literal + to_string temporaries (PR105329).
      const std::string name = "r" + std::to_string(i);
      JobSpec spec = single_task_job(name, 0, light_map_task());
      spec.queue = "research";
      cluster.submit(spec);
    });
  }
  JobId prod{};
  cluster.sim().at(10.0, [&] {
    JobSpec spec = single_task_job("prod0", 0, light_map_task());
    spec.queue = "prod";
    prod = cluster.submit(spec);
  });
  cluster.run();
  EXPECT_GE(cap->preemptions_issued(), 1);
  const Job& p = cluster.job_tracker().job(prod);
  EXPECT_EQ(p.state, JobState::Succeeded);
  // Prod did not wait for a research task to finish on its own (~80 s
  // after its submission at t=10): it got a slot within the timeout plus
  // protocol latency.
  const Task& prod_task = cluster.job_tracker().task(p.tasks[0]);
  EXPECT_LT(prod_task.first_launched_at, 40.0);
}

struct ReclaimEvents {
  int kills = 0;
  int suspends = 0;
};

// Two queues with opposite per-queue `preempt=` modes; `donor` borrows
// both slots, then `claimant` arrives and reclaims its guarantee. The
// event trace shows which primitive actually hit the donor's task.
ReclaimEvents reclaim_guarantee(const std::string& donor, const std::string& claimant) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  CapacityScheduler::Options options;
  options.queues = {{"prod", 0.5, "susp"}, {"research", 0.5, "kill"}};
  options.preemption_timeout = seconds(10);
  auto sched = std::make_unique<CapacityScheduler>(options);
  CapacityScheduler* cap = sched.get();
  cluster.set_scheduler(std::move(sched));

  for (int i = 0; i < 2; ++i) {
    cluster.sim().at(0.05 + 0.05 * i, [&cluster, &donor, i] {
      const std::string name = donor + std::to_string(i);
      JobSpec spec = single_task_job(name, 0, light_map_task());
      spec.queue = donor;
      cluster.submit(spec);
    });
  }
  cluster.sim().at(10.0, [&] {
    JobSpec spec = single_task_job("claimant", 0, light_map_task(64 * MiB));
    spec.queue = claimant;
    cluster.submit(spec);
  });

  ReclaimEvents events;
  cluster.job_tracker().add_event_hook([&events](const ClusterEvent& ev) {
    if (ev.type == ClusterEventType::TaskKillRequested) ++events.kills;
    if (ev.type == ClusterEventType::TaskSuspendRequested) ++events.suspends;
  });
  cluster.run();
  EXPECT_GE(cap->preemptions_issued(), 1) << donor << " -> " << claimant;
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return events;
}

TEST(Capacity, PerQueuePreemptModeSelectsThePrimitive) {
  // research carries preempt=kill: reclaiming from it kills, never suspends.
  const ReclaimEvents from_research = reclaim_guarantee("research", "prod");
  EXPECT_GE(from_research.kills, 1);
  EXPECT_EQ(from_research.suspends, 0);
  // prod carries preempt=susp: reclaiming from it suspends, never kills.
  const ReclaimEvents from_prod = reclaim_guarantee("prod", "research");
  EXPECT_GE(from_prod.suspends, 1);
  EXPECT_EQ(from_prod.kills, 0);
}

TEST(Capacity, GuaranteedSlotsFloorAtOne) {
  CapacityScheduler::Options options;
  options.queues = {{"small", 0.1}, {"big", 0.9}};
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 4;
  Cluster cluster(cfg);
  auto sched = std::make_unique<CapacityScheduler>(options);
  CapacityScheduler* cap = sched.get();
  cluster.set_scheduler(std::move(sched));
  EXPECT_EQ(cap->guaranteed_slots("small"), 1);
  EXPECT_EQ(cap->guaranteed_slots("big"), 3);
  EXPECT_EQ(cap->guaranteed_slots("missing"), 0);
}

}  // namespace
}  // namespace osap
