// Size-based scheduling with work-preserving preemption on a small
// cluster: a SWIM-like trace of heavy-tailed jobs runs under HFSP, which
// suspends big jobs' tasks whenever smaller jobs arrive (§VI).
//
//   $ ./hfsp_cluster            # susp primitive, 12 jobs, 4 nodes
//   $ ./hfsp_cluster kill 20    # a different primitive / trace length
#include <cstdio>
#include <cstring>

#include "metrics/table.hpp"
#include "sched/hfsp.hpp"
#include "workload/swim.hpp"

using namespace osap;

int main(int argc, char** argv) {
  const PreemptPrimitive primitive =
      argc > 1 ? parse_primitive(argv[1]) : PreemptPrimitive::Suspend;
  const int jobs = argc > 2 ? std::atoi(argv[2]) : 12;

  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = primitive;
  auto sched = std::make_unique<HfspScheduler>(options);
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));

  SwimConfig swim;
  swim.jobs = jobs;
  swim.mean_interarrival = seconds(25);
  swim.max_tasks = 8;
  swim.stateful_fraction = 0.25;
  swim.state_memory = gib(1.5);
  Rng rng(7);
  for (SwimJob& job : generate_swim_trace(swim, rng)) {
    cluster.submit_at(job.arrival, std::move(job.spec));
  }
  cluster.run();

  std::printf("HFSP with the '%s' primitive, %d jobs on %d nodes\n\n", to_string(primitive),
              jobs, cfg.num_nodes);
  Table table({"job", "tasks", "stateful", "arrived (s)", "sojourn (s)"});
  const JobTracker& jt = cluster.job_tracker();
  for (JobId id : jt.jobs_in_order()) {
    const Job& job = jt.job(id);
    table.row({job.spec.name, std::to_string(job.tasks.size()),
               job.spec.tasks.front().state_memory > 0 ? "yes" : "no",
               Table::num(job.submitted_at), Table::num(job.sojourn())});
  }
  table.print();
  std::printf("\npreemptions issued by HFSP: %d\n", hfsp->preemptions_issued());
  return 0;
}
