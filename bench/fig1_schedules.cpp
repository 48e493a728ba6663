// Figure 1: task execution schedules under the three preemption
// strategies. tl starts first; at 50% of its input th arrives and the
// dummy scheduler applies the primitive; timelines are rendered as ASCII
// Gantt charts ('=' running, '.' suspended, '|' done).
#include <cstdio>

#include "bench_util.hpp"
#include "metrics/timeline.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

void render(PreemptPrimitive primitive) {
  Cluster cluster(paper_cluster());
  TimelineRecorder recorder(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec tl = light_map_task();
  TaskSpec th = light_map_task();
  tl.preferred_node = th.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));
  ds.at_progress("tl", 0, 0.5, [&cluster, &ds, th, primitive] {
    cluster.submit(single_task_job("th", 10, th));
    ds.preempt("tl", 0, primitive);
  });
  ds.on_complete("th", [&ds, primitive] { ds.restore("tl", 0, primitive); });
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  std::printf("\n--- %s ---\n%s", to_string(primitive), recorder.render_gantt(3.0).c_str());
  std::printf("sojourn(th) = %.1f s, makespan = %.1f s\n",
              jt.job(ds.job_of("th")).sojourn(), recorder.makespan());
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Task execution schedules (wait / kill / susp)", "Figure 1");
  for (PreemptPrimitive p :
       {PreemptPrimitive::Wait, PreemptPrimitive::Kill, PreemptPrimitive::Suspend}) {
    render(p);
  }
  return 0;
}
