// §III-A: suspend-resume cycle cost.
//
// "Pages allocated for the suspended processes are paged out and in at
// most once, respectively after suspension and resuming. Thrashing could
// only happen if a given job is continuously suspended and resumed by the
// scheduling mechanism: the moderate cost of a suspend-resume cycle can be
// thus multiplied by the number of cycles."
//
// A memory-hungry tl (2.5 GiB state, 1.5 GiB input) is preempted by a
// stream of N memory-hungry high-priority jobs. Each cycle pays one
// page-out + page-in; total paging grows linearly with N and so does tl's
// completion time.
#include <cstdio>

#include "bench_util.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

MetricMap run_cycles(int cycles, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  Rng rng(seed);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec tl = jitter_task(hungry_map_task(gib(2.5), gib(1.5)), rng);
  tl.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));

  // Cycle i: suspend tl, run a hungry high-priority task, resume tl.
  for (int i = 0; i < cycles; ++i) {
    const std::string name = "high" + std::to_string(i);
    TaskSpec high = jitter_task(hungry_map_task(2 * GiB, 128 * MiB), rng);
    high.preferred_node = cluster.node(0);
    cluster.sim().at(20.0 + 45.0 * i, [&cluster, &ds, name, high] {
      const Task& t = cluster.job_tracker().task(ds.task_of("tl", 0));
      if (t.done()) return;
      cluster.submit(single_task_job(name, 10, high));
      if (t.state == TaskState::Running) ds.preempt("tl", 0, PreemptPrimitive::Suspend);
    });
    ds.on_complete(name, [&cluster, &ds] {
      const Task& t = cluster.job_tracker().task(ds.task_of("tl", 0));
      if (!t.done()) ds.restore("tl", 0, PreemptPrimitive::Suspend);
    });
  }
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  const Task& t = jt.task(ds.task_of("tl", 0));
  return MetricMap{
      {"tl_sojourn", jt.job(ds.job_of("tl")).sojourn()},
      {"tl_swap_out_mib", to_mib(t.swapped_out)},
      {"tl_swap_in_mib", to_mib(t.swapped_in)},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Cost of repeated suspend-resume cycles",
                      "§III-A thrashing discussion");
  Table table({"cycles", "tl sojourn (s)", "tl paged out (MiB)", "tl paged in (MiB)"});
  for (int cycles : {0, 1, 2, 3, 4}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_cycles(cycles, seed); }, 10);
    table.row({std::to_string(cycles), Table::num(agg.at("tl_sojourn").mean()),
               Table::num(agg.at("tl_swap_out_mib").mean(), 0),
               Table::num(agg.at("tl_swap_in_mib").mean(), 0)});
  }
  table.print();
  std::printf(
      "\nEach cycle pays roughly one page-out + page-in of tl's state —\n"
      "linear in the cycle count, no runaway thrashing. Schedulers should\n"
      "still avoid needless cycles (the paper's advice).\n");
  return 0;
}
