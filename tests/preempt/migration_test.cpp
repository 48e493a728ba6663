// CRIU-style migration of suspended tasks (§V-A future work).
#include "preempt/migration.hpp"

#include <gtest/gtest.h>

#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

struct Rig {
  Rig() {
    ClusterConfig cfg = paper_cluster();
    cfg.num_nodes = 2;
    cluster = std::make_unique<Cluster>(cfg);
    // Infinite locality delay keeps pinned tasks pinned.
    auto sched = std::make_unique<DummyScheduler>(*cluster, seconds(1e9));
    ds = sched.get();
    cluster->set_scheduler(std::move(sched));
  }
  std::unique_ptr<Cluster> cluster;
  DummyScheduler* ds = nullptr;
};

TEST(Migration, MovesSuspendedTaskToIdleNodeWithoutLosingWork) {
  Rig rig;
  // tl runs on node 0 (unpinned tasks land there first), gets suspended at
  // 50%, and node 0 stays busy with pinned high-priority fillers.
  TaskSpec tl = light_map_task();
  rig.cluster->submit_at(0.05, single_task_job("tl", 0, tl));
  rig.ds->at_progress("tl", 0, 0.5, [&] {
    for (int i = 0; i < 2; ++i) {
      TaskSpec high = light_map_task();
      high.preferred_node = rig.cluster->node(0);
      rig.cluster->submit(single_task_job("high" + std::to_string(i), 10, high));
    }
    rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend);
  });

  auto migrator = std::make_shared<TaskMigrator>(*rig.cluster);
  auto migrated = std::make_shared<bool>(false);
  rig.cluster->sim().at(60.0, [&, migrator, migrated] {
    EXPECT_TRUE(migrator->migrate(rig.ds->task_of("tl", 0), rig.cluster->node(1),
                                  [migrated](bool ok) { *migrated = ok; }));
  });
  rig.cluster->run();

  EXPECT_TRUE(*migrated);
  EXPECT_EQ(migrator->migrations(), 1);
  EXPECT_GT(migrator->bytes_moved(), 100 * MiB);
  const JobTracker& jt = rig.cluster->job_tracker();
  const Job& tl_job = jt.job(rig.ds->job_of("tl"));
  EXPECT_EQ(tl_job.state, JobState::Succeeded);
  const Task& task = jt.task(tl_job.tasks[0]);
  EXPECT_EQ(task.attempts_started, 2);  // original + restored attempt
  // Work preserved: the restored attempt fast-forwarded past the first
  // half, so tl finished long before the fillers freed node 0 (~205 s)
  // plus a full rerun would allow.
  EXPECT_LT(tl_job.completed_at, 170.0);
  // And it genuinely ran on node 1: meanwhile node 0 was busy.
  EXPECT_EQ(task.spec.preferred_node, rig.cluster->node(1));
}

TEST(Migration, RejectsRunningOrUnknownTasks) {
  Rig rig;
  TaskSpec tl = light_map_task();
  rig.cluster->submit_at(0.05, single_task_job("tl", 0, tl));
  auto migrator = std::make_shared<TaskMigrator>(*rig.cluster);
  rig.cluster->sim().at(20.0, [&, migrator] {
    // Running, not suspended: refuse.
    EXPECT_FALSE(migrator->migrate(rig.ds->task_of("tl", 0), rig.cluster->node(1)));
  });
  rig.cluster->run();
  EXPECT_EQ(migrator->migrations(), 0);
}

TEST(Migration, SameNodeMigrationIsRefused) {
  Rig rig;
  TaskSpec tl = light_map_task();
  rig.cluster->submit_at(0.05, single_task_job("tl", 0, tl));
  rig.ds->at_progress("tl", 0, 0.4,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  auto migrator = std::make_shared<TaskMigrator>(*rig.cluster);
  rig.cluster->sim().at(50.0, [&, migrator] {
    EXPECT_FALSE(migrator->migrate(rig.ds->task_of("tl", 0), rig.cluster->node(0)));
    rig.ds->restore("tl", 0, PreemptPrimitive::Suspend);
  });
  rig.cluster->run();
  EXPECT_EQ(rig.cluster->job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(Migration, StatefulTaskShipsItsMemoryImage) {
  Rig rig;
  TaskSpec tl = hungry_map_task(1 * GiB);
  rig.cluster->submit_at(0.05, single_task_job("tl", 0, tl));
  rig.ds->at_progress("tl", 0, 0.5, [&] {
    for (int i = 0; i < 2; ++i) {
      TaskSpec high = light_map_task();
      high.preferred_node = rig.cluster->node(0);
      rig.cluster->submit(single_task_job("high" + std::to_string(i), 10, high));
    }
    rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  auto migrator = std::make_shared<TaskMigrator>(*rig.cluster);
  rig.cluster->sim().at(60.0, [&, migrator] {
    migrator->migrate(rig.ds->task_of("tl", 0), rig.cluster->node(1));
  });
  rig.cluster->run();
  // The image includes the 1 GiB of state.
  EXPECT_GT(migrator->bytes_moved(), 1 * GiB);
  EXPECT_EQ(rig.cluster->job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

}  // namespace
}  // namespace osap
