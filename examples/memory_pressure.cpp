// Watch the OS work: a memory-hungry task is suspended while another
// memory-hungry task runs, and the node's memory state is sampled every
// five seconds — free RAM, file-system cache, swap usage, and who owns
// what. This is the worst-case scenario of §IV made visible.
//
//   $ ./memory_pressure
#include <cstdio>

#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

using namespace osap;

int main() {
  Cluster cluster(paper_cluster());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec tl = hungry_map_task(2 * GiB);
  TaskSpec th = hungry_map_task(2 * GiB);
  tl.preferred_node = th.preferred_node = cluster.node(0);
  cluster.submit_at(0.1, single_task_job("tl", 0, tl));
  ds.at_progress("tl", 0, 0.5, [&] {
    cluster.submit(single_task_job("th", 10, th));
    ds.preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  ds.on_complete("th", [&] { ds.restore("tl", 0, PreemptPrimitive::Suspend); });

  Kernel& kernel = cluster.kernel(cluster.node(0));
  std::printf("%6s  %10s  %10s  %10s  %12s  %s\n", "t (s)", "free", "fs-cache", "swap used",
              "tl state", "note");
  SimTime last_note_time = -1;
  (void)last_note_time;
  auto sample = [&cluster, &ds, &kernel](auto self) -> void {
    const JobTracker& jt = cluster.job_tracker();
    if (jt.all_jobs_done() && !jt.jobs_in_order().empty()) return;
    const Task& tl_task = jt.task(ds.task_of("tl", 0));
    const Vmm& vmm = kernel.vmm();
    const char* note = "";
    switch (tl_task.state) {
      case TaskState::Running: note = "tl running"; break;
      case TaskState::MustSuspend: note = "suspend command in flight"; break;
      case TaskState::Suspended: note = "tl SUSPENDED (memory managed by the OS)"; break;
      case TaskState::MustResume: note = "resume command in flight"; break;
      case TaskState::Succeeded: note = "tl done"; break;
      default: note = ""; break;
    }
    std::printf("%6.0f  %10s  %10s  %10s  %12s  %s\n", cluster.sim().now(),
                format_bytes(vmm.free_ram()).c_str(), format_bytes(vmm.fs_cache()).c_str(),
                format_bytes(vmm.swap_used()).c_str(), to_string(tl_task.state), note);
    cluster.sim().after(5.0, [self] { self(self); });
  };
  cluster.sim().at(0.5, [sample] { sample(sample); });
  cluster.run();

  const Task& tl_task = cluster.job_tracker().task(ds.task_of("tl", 0));
  std::printf("\ntotal paged for tl: %s out, %s in — paid only because memory was"
              " actually scarce\n",
              format_bytes(tl_task.swapped_out).c_str(),
              format_bytes(tl_task.swapped_in).c_str());
  return 0;
}
