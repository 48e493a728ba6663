// Fairness via preemption: the FAIR scheduler detects a starved job and
// takes a slot back with the suspend primitive instead of killing (§II:
// "job schedulers, like the Hadoop FAIR and Capacity schedulers, can use
// preemption to warrant fairness").
//
//   $ ./fair_sharing
#include <cstdio>

#include "metrics/timeline.hpp"
#include "sched/fair.hpp"
#include "workload/profiles.hpp"

using namespace osap;

int main() {
  Cluster cluster(paper_cluster());
  TimelineRecorder timeline(cluster.job_tracker());
  FairScheduler::Options options;
  options.preemption_timeout = seconds(10);
  options.primitive = PreemptPrimitive::Suspend;
  auto sched = std::make_unique<FairScheduler>(options);
  FairScheduler* fair = sched.get();
  cluster.set_scheduler(std::move(sched));

  // A hog takes the only slot; a latecomer starves until the scheduler
  // preempts on its behalf.
  cluster.submit_at(0.1, single_task_job("hog", 0, light_map_task()));
  cluster.submit_at(10.0, single_task_job("latecomer", 0, light_map_task()));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  const JobId hog_id = jt.jobs_in_order()[0];  // ids follow arrival order
  const JobId late_id = jt.jobs_in_order()[1];
  std::printf("preemptions issued by FAIR: %d\n\n", fair->preemptions_issued());
  std::printf("%s\n", timeline.render_gantt(3.0).c_str());
  std::printf("hog:       sojourn %.1f s, attempts of its task: %d (work preserved)\n",
              jt.job(hog_id).sojourn(), jt.task(jt.job(hog_id).tasks[0]).attempts_started);
  std::printf("latecomer: sojourn %.1f s (did not wait for the hog to finish)\n",
              jt.job(late_id).sojourn());
  return 0;
}
