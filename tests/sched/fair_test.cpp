#include "sched/fair.hpp"

#include <gtest/gtest.h>

#include "workload/profiles.hpp"

namespace osap {
namespace {

TEST(Fair, StarvedJobTriggersPreemption) {
  // One slot; a long job hogs it; a second job arrives and must get its
  // share via suspension.
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  FairScheduler::Options options;
  options.preemption_timeout = seconds(10);
  options.primitive = PreemptPrimitive::Suspend;
  auto sched = std::make_unique<FairScheduler>(options);
  FairScheduler* fair = sched.get();
  cluster.set_scheduler(std::move(sched));

  JobId hog, late;
  cluster.sim().at(0.05,
                   [&] { hog = cluster.submit(single_task_job("hog", 0, light_map_task())); });
  cluster.sim().at(10.0,
                   [&] { late = cluster.submit(single_task_job("late", 0, light_map_task())); });
  cluster.run();
  EXPECT_GE(fair->preemptions_issued(), 1);
  const Job& h = cluster.job_tracker().job(hog);
  const Job& l = cluster.job_tracker().job(late);
  EXPECT_EQ(h.state, JobState::Succeeded);
  EXPECT_EQ(l.state, JobState::Succeeded);
  // The late job did not wait for the hog to finish end-to-end.
  EXPECT_LT(l.completed_at, h.completed_at + 80.0);
}

TEST(Fair, NoPreemptionWhenSharesSatisfied) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  FairScheduler::Options options;
  options.preemption_timeout = seconds(10);
  auto sched = std::make_unique<FairScheduler>(options);
  FairScheduler* fair = sched.get();
  cluster.set_scheduler(std::move(sched));
  cluster.sim().at(0.05, [&] { cluster.submit(single_task_job("a", 0, light_map_task())); });
  cluster.sim().at(0.10, [&] { cluster.submit(single_task_job("b", 0, light_map_task())); });
  cluster.run();
  EXPECT_EQ(fair->preemptions_issued(), 0);
}

TEST(Fair, SuspendedVictimResumesAfterward) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  FairScheduler::Options options;
  options.preemption_timeout = seconds(10);
  auto sched = std::make_unique<FairScheduler>(options);
  cluster.set_scheduler(std::move(sched));
  JobId hog;
  cluster.sim().at(0.05,
                   [&] { hog = cluster.submit(single_task_job("hog", 0, light_map_task())); });
  cluster.sim().at(10.0, [&] { cluster.submit(single_task_job("late", 0, light_map_task())); });
  cluster.run();
  const Job& h = cluster.job_tracker().job(hog);
  EXPECT_EQ(h.state, JobState::Succeeded);
  const Task& victim = cluster.job_tracker().task(h.tasks[0]);
  // Work-preserving: the hog's task was suspended and resumed, not rerun.
  EXPECT_EQ(victim.attempts_started, 1);
}

}  // namespace
}  // namespace osap
