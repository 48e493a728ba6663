#include "sched/hfsp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hadoop/events.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

TEST(Hfsp, SmallJobPreemptsBigJob) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  auto sched = std::make_unique<HfspScheduler>(options);
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));

  // Big job first (512 MB task), tiny job (64 MB task) arrives mid-run.
  JobId big, tiny;
  cluster.sim().at(0.05,
                   [&] { big = cluster.submit(single_task_job("big", 0, light_map_task())); });
  cluster.sim().at(20.0, [&] {
    tiny = cluster.submit(single_task_job("tiny", 0, light_map_task(64 * MiB)));
  });
  cluster.run();
  EXPECT_GE(hfsp->preemptions_issued(), 1);
  const Job& b = cluster.job_tracker().job(big);
  const Job& t = cluster.job_tracker().job(tiny);
  EXPECT_EQ(b.state, JobState::Succeeded);
  EXPECT_EQ(t.state, JobState::Succeeded);
  // The tiny job finished long before the big one (SRPT behaviour).
  EXPECT_LT(t.completed_at, b.completed_at);
  EXPECT_LT(t.sojourn(), 30.0);
  // Work preserved: the big task was suspended, not killed.
  EXPECT_EQ(cluster.job_tracker().task(b.tasks[0]).attempts_started, 1);
}

// Regression: the per-heartbeat preemption budget must pace *effective*
// preemptions only. A suspend order aimed at a blacklisted tracker is
// refused by the Preemptor; with a budget of 1 (the default), charging
// that dead order would leave the head job starved until the victim's
// task drained on its own. The refused victim must instead be excluded
// and the next candidate tried within the same heartbeat.
TEST(Hfsp, RefusedOrderDoesNotConsumePreemptionBudget) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;  // budget defaults to 1
  auto sched = std::make_unique<HfspScheduler>(options);
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));
  JobTracker& jt = cluster.job_tracker();

  // One big job spanning both nodes. Task 0 is shorter, so under HFSP's
  // MostProgress order it is the first eviction pick.
  JobId big{}, tiny{};
  cluster.sim().at(0.05, [&] {
    JobSpec spec = single_task_job("big", 0, light_map_task(256 * MiB));
    spec.tasks[0].preferred_node = cluster.node(0);
    spec.tasks.push_back(light_map_task());
    spec.tasks[1].preferred_node = cluster.node(1);
    big = cluster.submit(spec);
  });
  // Mid-run, task 0's tracker goes on the blacklist (as after repeated
  // attempt failures) — suspend orders against it are now no-ops.
  cluster.sim().at(20.0, [&] {
    const TaskId first = jt.job(big).tasks[0];
    ASSERT_EQ(jt.task(first).state, TaskState::Running);
    jt.testing_blacklist_tracker(jt.task(first).tracker);
  });
  cluster.sim().at(20.5, [&] {
    tiny = cluster.submit(single_task_job("tiny", 0, light_map_task(64 * MiB)));
  });

  std::vector<TaskId> suspend_requests;
  jt.add_event_hook([&](const ClusterEvent& ev) {
    if (ev.type == ClusterEventType::TaskSuspendRequested) suspend_requests.push_back(ev.task);
  });
  cluster.run();

  // The budget went to the healthy victim in the same heartbeat: task 1
  // was suspended, the blacklisted task 0 never was.
  EXPECT_GE(hfsp->preemptions_issued(), 1);
  ASSERT_FALSE(suspend_requests.empty());
  for (TaskId tid : suspend_requests) EXPECT_EQ(tid, jt.job(big).tasks[1]);
  // And the head job actually profited: it did not wait out the ~40 s
  // the blacklisted task would have needed to drain.
  const Job& t = jt.job(tiny);
  EXPECT_EQ(t.state, JobState::Succeeded);
  EXPECT_LT(t.sojourn(), 30.0);
  EXPECT_EQ(jt.job(big).state, JobState::Succeeded);
}

TEST(Hfsp, RemainingSizeShrinksWithProgress) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<HfspScheduler>();
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));
  JobId id;
  cluster.sim().at(0.05, [&] { id = cluster.submit(single_task_job("j", 0, light_map_task())); });
  cluster.run_until(45.0);
  const Bytes remaining = hfsp->remaining_size(id);
  EXPECT_LT(remaining, 400 * MiB);
  EXPECT_GT(remaining, 100 * MiB);
}

TEST(Hfsp, BigJobCompletesAfterSmallOnesDrain) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<HfspScheduler>();
  cluster.set_scheduler(std::move(sched));
  JobId big;
  std::vector<JobId> smalls(3);
  cluster.sim().at(0.05,
                   [&] { big = cluster.submit(single_task_job("big", 0, light_map_task())); });
  for (int i = 0; i < 3; ++i) {
    cluster.sim().at(15.0 + 5 * i, [&, i] {
      smalls[static_cast<std::size_t>(i)] =
          cluster.submit(single_task_job("small" + std::to_string(i), 0, light_map_task(32 * MiB)));
    });
  }
  cluster.run();
  const Job& b = cluster.job_tracker().job(big);
  EXPECT_EQ(b.state, JobState::Succeeded);
  for (JobId s : smalls) {
    EXPECT_EQ(cluster.job_tracker().job(s).state, JobState::Succeeded);
    EXPECT_LT(cluster.job_tracker().job(s).completed_at, b.completed_at);
  }
}

}  // namespace
}  // namespace osap
