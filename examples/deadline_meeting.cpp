// Deadlines via preemption (§II): an EDF scheduler suspends a background
// job the moment an urgent job's slack gets thin, and the deadline is met
// without losing the background job's work.
//
//   $ ./deadline_meeting          # suspend primitive
//   $ ./deadline_meeting wait     # watch the deadline get missed
#include <cstdio>

#include "metrics/timeline.hpp"
#include "sched/deadline.hpp"
#include "workload/profiles.hpp"

using namespace osap;

int main(int argc, char** argv) {
  const PreemptPrimitive primitive =
      argc > 1 ? parse_primitive(argv[1]) : PreemptPrimitive::Suspend;

  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  TimelineRecorder timeline(cluster.job_tracker());
  DeadlineScheduler::Options options;
  options.primitive = primitive;
  cluster.set_scheduler(std::make_unique<DeadlineScheduler>(options));

  cluster.submit_at(0.1, single_task_job("background", 0, light_map_task()));
  const SimTime deadline = 115.0;
  JobSpec urgent = single_task_job("urgent", 0, light_map_task());
  urgent.deadline = deadline;
  cluster.submit_at(20.0, urgent);
  cluster.run();

  // Ids follow arrival order.
  const JobTracker& jt = cluster.job_tracker();
  const Job& bg = jt.job(jt.jobs_in_order()[0]);
  const Job& u = jt.job(jt.jobs_in_order()[1]);
  std::printf("primitive: %s\n\n%s\n", to_string(primitive), timeline.render_gantt(3.0).c_str());
  std::printf("urgent job:    done at %.1f s, deadline %.0f s -> %s\n", u.completed_at, deadline,
              u.completed_at <= deadline ? "MET" : "MISSED");
  std::printf("background:    sojourn %.1f s, attempts %d\n", bg.sojourn(),
              jt.task(bg.tasks[0]).attempts_started);
  return 0;
}
