// End-to-end fuzz: random suspend / resume / kill storms against a live
// cluster must never wedge the system — every job still completes, state
// machines stay consistent, and memory is returned.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

class ClusterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterFuzz, RandomPreemptionStormStillCompletes) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  cluster.set_scheduler(std::move(sched));
  auto rng = std::make_shared<Rng>(GetParam());

  // A mixed workload: some light, some stateful jobs.
  std::vector<JobId> jobs;
  for (int i = 0; i < 5; ++i) {
    const Bytes state = (i % 2 == 0) ? 0 : gib(1.0);
    TaskSpec spec = state > 0 ? hungry_map_task(state, 256 * MiB)
                              : light_map_task(256 * MiB);
    jobs.push_back(
        cluster.submit(single_task_job("job" + std::to_string(i), i % 3, spec)));
  }

  // Every 4 s, poke a random live task with a random command.
  JobTracker& jt = cluster.job_tracker();
  auto storm = [&cluster, &jt, rng, jobs](auto self) -> void {
    if (cluster.sim().now() > 120.0) return;  // stop the storm, let it drain
    std::vector<TaskId> live, suspended;
    for (JobId jid : jobs) {
      for (TaskId tid : jt.job(jid).tasks) {
        const Task& t = jt.task(tid);
        if (t.state == TaskState::Running) live.push_back(tid);
        if (t.state == TaskState::Suspended) suspended.push_back(tid);
      }
    }
    switch (rng->uniform_int(0, 3)) {
      case 0:
        if (!live.empty()) jt.suspend_task(live[rng->next_u64() % live.size()]);
        break;
      case 1:
        if (!suspended.empty()) jt.resume_task(suspended[rng->next_u64() % suspended.size()]);
        break;
      case 2:
        if (!live.empty() && rng->uniform() < 0.4) {
          jt.kill_task(live[rng->next_u64() % live.size()]);
        }
        break;
      case 3:
        break;  // let it breathe
    }
    cluster.sim().after(4.0, [self] { self(self); });
  };
  cluster.sim().at(5.0, [storm] { storm(storm); });

  // After the storm, release anything still parked so the system drains.
  auto cleanup = [&cluster, &jt, jobs](auto self) -> void {
    bool any = false;
    for (JobId jid : jobs) {
      for (TaskId tid : jt.job(jid).tasks) {
        if (jt.task(tid).state == TaskState::Suspended) {
          jt.resume_task(tid);
          any = true;
        }
      }
    }
    if (any || !jt.all_jobs_done()) cluster.sim().after(10.0, [self] { self(self); });
  };
  cluster.sim().at(125.0, [cleanup] { cleanup(cleanup); });

  cluster.run_until(3000.0);

  for (JobId jid : jobs) {
    const Job& job = jt.job(jid);
    EXPECT_EQ(job.state, JobState::Succeeded) << "job " << jid << " wedged";
    for (TaskId tid : job.tasks) {
      const Task& t = jt.task(tid);
      EXPECT_EQ(t.state, TaskState::Succeeded);
      EXPECT_GE(t.attempts_started, 1);
    }
  }
  // All task memory was returned to the OS on both nodes.
  for (int n = 0; n < 2; ++n) {
    Kernel& kernel = cluster.kernel(cluster.node(n));
    EXPECT_EQ(kernel.process_count(), 0u);
    EXPECT_EQ(kernel.vmm().free_ram() + kernel.vmm().fs_cache(),
              cfg.os.usable_ram());
    EXPECT_EQ(kernel.vmm().swap_used(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFuzz, ::testing::Values(1, 7, 13, 42, 99, 1234));

}  // namespace
}  // namespace osap
