// Reduce-task support: shuffle + sort + reduce phases, reduce slots, and
// preemption of reducers (the primitive "behaves in the same way for both
// Map and Reduce tasks", §IV-A).
#include <gtest/gtest.h>

#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

TaskSpec reduce_task(Bytes shuffle, Bytes state = 0) {
  TaskSpec spec;
  spec.type = TaskType::Reduce;
  spec.shuffle_bytes = shuffle;
  spec.sort_cpu_seconds = 5.0;
  spec.input_bytes = 0;
  spec.output_bytes = shuffle / 2;
  spec.state_memory = state;
  spec.framework_memory = 160 * MiB;
  spec.parse_cpu_per_byte = 1.0 / (6.7 * static_cast<double>(MiB));
  return spec;
}

struct Rig {
  Rig() : cluster(paper_cluster()) {
    auto sched = std::make_unique<DummyScheduler>(cluster);
    ds = sched.get();
    cluster.set_scheduler(std::move(sched));
  }
  Cluster cluster;
  DummyScheduler* ds = nullptr;
};

TEST(Reduce, MapAndReduceJobCompletes) {
  Rig rig;
  JobSpec job;
  job.name = "mr";
  job.tasks.push_back(light_map_task(256 * MiB));
  job.tasks.push_back(reduce_task(128 * MiB));
  rig.cluster.submit_at(0.05, job);
  rig.cluster.run();
  const Job& done = rig.cluster.job_tracker().job(rig.ds->job_of("mr"));
  EXPECT_EQ(done.state, JobState::Succeeded);
  // Map (~40 s) and reduce (~25 s) used separate slots, so they overlap.
  EXPECT_LT(done.sojourn(), 60.0);
}

TEST(Reduce, ReduceUsesReduceSlotsNotMapSlots) {
  Rig rig;
  // One map slot busy with a map task; a reduce task must still launch.
  JobSpec job;
  job.name = "mixed";
  job.tasks.push_back(light_map_task());
  job.tasks.push_back(reduce_task(64 * MiB));
  rig.cluster.submit_at(0.05, job);
  rig.cluster.run_until(20.0);
  TaskTracker& tt = rig.cluster.tracker(rig.cluster.node(0));
  EXPECT_EQ(tt.free_map_slots(), 0);
  EXPECT_EQ(tt.free_reduce_slots(), 0);
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("mixed")).state, JobState::Succeeded);
}

TEST(Reduce, ReducerCanBeSuspendedAndResumed) {
  Rig rig;
  JobSpec job;
  job.name = "red";
  job.tasks.push_back(reduce_task(512 * MiB));
  rig.cluster.submit_at(0.05, job);
  rig.ds->at_progress("red", 0, 0.4,
                      [&] { rig.ds->preempt("red", 0, PreemptPrimitive::Suspend); });
  rig.cluster.sim().at(80.0, [&] { rig.ds->restore("red", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const Job& done = rig.cluster.job_tracker().job(rig.ds->job_of("red"));
  EXPECT_EQ(done.state, JobState::Succeeded);
  const Task& task = rig.cluster.job_tracker().task(done.tasks[0]);
  EXPECT_EQ(task.attempts_started, 1);  // suspended, not rerun
}

TEST(Reduce, StatefulReducerSwapsUnderPressure) {
  // The motivating case for OS-assisted preemption: reducers are the
  // stateful tasks par excellence (Natjam's focus).
  Rig rig;
  JobSpec red;
  red.name = "red";
  red.tasks.push_back(reduce_task(512 * MiB, /*state=*/2 * GiB));
  rig.cluster.submit_at(0.05, red);
  rig.ds->at_progress("red", 0, 0.5, [&] {
    TaskSpec hungry = hungry_map_task(2 * GiB);
    rig.cluster.submit(single_task_job("high", 10, hungry));
    rig.ds->preempt("red", 0, PreemptPrimitive::Suspend);
  });
  rig.ds->on_complete("high", [&] { rig.ds->restore("red", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  EXPECT_EQ(jt.job(rig.ds->job_of("red")).state, JobState::Succeeded);
  const Task& reducer = jt.task(rig.ds->task_of("red", 0));
  EXPECT_GT(reducer.swapped_out, 300 * MiB);
  EXPECT_EQ(reducer.attempts_started, 1);
}

}  // namespace
}  // namespace osap
