// Quickstart: the smallest end-to-end use of the library.
//
// Builds a one-node Hadoop cluster (the paper's testbed configuration),
// submits a low-priority job, preempts it for a high-priority job using
// the OS-assisted suspend/resume primitive, and prints what happened.
//
//   $ ./quickstart
#include <cstdio>

#include "metrics/timeline.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

using namespace osap;

int main() {
  // 1. A cluster: one worker (4 GiB RAM, one map slot, swappiness 0),
  //    a JobTracker and the simulated OS underneath.
  Cluster cluster(paper_cluster());
  TimelineRecorder timeline(cluster.job_tracker());

  // 2. The dummy scheduler: FIFO assignment plus the trigger API used
  //    throughout the paper's evaluation.
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  // 3. Two single-task map-only jobs, each reading a 512 MB block from
  //    the worker's disk.
  TaskSpec low_task = light_map_task();
  TaskSpec high_task = light_map_task();
  low_task.preferred_node = high_task.preferred_node = cluster.node(0);

  cluster.submit_at(0.1, single_task_job("low", /*priority=*/0, low_task));

  // 4. When the low job reaches 50%, a high-priority job arrives; suspend
  //    the low task (SIGTSTP to its child JVM) to free the slot at once.
  ds.at_progress("low", 0, 0.5, [&] {
    cluster.submit(single_task_job("high", /*priority=*/10, high_task));
    ds.preempt("low", 0, PreemptPrimitive::Suspend);
  });

  // 5. When the high job finishes, SIGCONT the suspended task: it picks
  //    up exactly where it left off — no work lost.
  ds.on_complete("high", [&] { ds.restore("low", 0, PreemptPrimitive::Suspend); });

  cluster.run();

  // 6. Inspect the outcome.
  const JobTracker& jt = cluster.job_tracker();
  const Job& low = jt.job(ds.job_of("low"));
  const Job& high = jt.job(ds.job_of("high"));
  std::printf("high-priority job: sojourn %.1f s (submitted at 50%% of low)\n",
              high.sojourn());
  std::printf("low-priority job:  sojourn %.1f s (suspended, then resumed)\n",
              low.sojourn());
  std::printf("workload makespan: %.1f s\n\n", timeline.makespan());
  std::printf("%s\n", timeline.render_gantt(3.0).c_str());

  const Task& low_t = jt.task(ds.task_of("low", 0));
  std::printf("attempts of the low task: %d (1 = its work was preserved)\n",
              low_t.attempts_started);
  std::printf("bytes the OS paged for it: %s out, %s in\n",
              format_bytes(low_t.swapped_out).c_str(), format_bytes(low_t.swapped_in).c_str());
  return 0;
}
