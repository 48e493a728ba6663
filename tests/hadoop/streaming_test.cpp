// Hadoop Streaming / external state (§V-B): tasks piping through external
// executables must survive suspension — "external software would
// correctly pause waiting for the next input from a suspended task".
#include <gtest/gtest.h>

#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

TaskSpec streaming_task() {
  TaskSpec spec = light_map_task();
  spec.streaming_helper_memory = 256 * MiB;
  spec.streaming_cpu_per_byte = 1.0 / (20.0 * static_cast<double>(MiB));
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

TEST(Streaming, HelperProcessRunsAlongsideTheTask) {
  Rig rig;
  TaskSpec spec = streaming_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("stream", 0, spec));
  rig.cluster.run_until(20.0);
  // Task JVM + external executable = two processes on the node.
  EXPECT_EQ(rig.cluster.kernel(rig.cluster.node(0)).process_count(), 2u);
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("stream")).state,
            JobState::Succeeded);
  // The helper is gone once the pipe closed.
  EXPECT_EQ(rig.cluster.kernel(rig.cluster.node(0)).process_count(), 0u);
}

TEST(Streaming, SuspensionPausesTheHelperToo) {
  Rig rig;
  TaskSpec spec = streaming_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("stream", 0, spec));
  rig.ds->at_progress("stream", 0, 0.4,
                      [&] { rig.ds->preempt("stream", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run_until(60.0);
  Kernel& kernel = rig.cluster.kernel(rig.cluster.node(0));
  int stopped = 0;
  for (std::uint64_t pid = 0; pid < 8; ++pid) {
    const Process* p = kernel.find(Pid{pid});
    if (p != nullptr && p->state() == ProcState::Stopped) ++stopped;
  }
  EXPECT_EQ(stopped, 2);  // the task and its external helper

  rig.cluster.sim().at(61.0, [&] { rig.ds->restore("stream", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("stream")).state,
            JobState::Succeeded);
}

TEST(Streaming, KillTearsDownTheHelper) {
  Rig rig;
  TaskSpec spec = streaming_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("stream", 0, spec));
  rig.ds->at_progress("stream", 0, 0.4,
                      [&] { rig.ds->preempt("stream", 0, PreemptPrimitive::Kill); });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("stream")).state,
            JobState::Succeeded);
  // No orphaned helpers at the end.
  EXPECT_EQ(rig.cluster.kernel(rig.cluster.node(0)).process_count(), 0u);
}

}  // namespace
}  // namespace osap
