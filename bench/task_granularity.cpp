// Why preemption needs a primitive at all: task granularity.
//
// Footnote 1: "a task is a unit of processing work … a typical Hadoop
// task can last tens of seconds or minutes". The wait primitive's latency
// is one task's *remaining* time, so chopping the same 512 MB of work
// into more, smaller tasks shrinks wait's disadvantage — at the price of
// per-task overheads. This bench sweeps the input-split size: with
// minute-long tasks the suspend primitive is worth tens of seconds; with
// tiny tasks, natural completion points make wait nearly as good.
#include <cstdio>

#include "bench_util.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

MetricMap run_split(Bytes split, PreemptPrimitive primitive, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  // tl: 512 MB of total work in `512MiB / split` tasks.
  JobSpec tl;
  tl.name = "tl";
  tl.priority = 0;
  const int pieces = static_cast<int>((512 * MiB) / split);
  for (int i = 0; i < pieces; ++i) tl.tasks.push_back(jitter_task(light_map_task(split), rng));
  cluster.submit_at(0.05, tl);

  // th arrives mid-way through tl's total work.
  TaskSpec th = jitter_task(light_map_task(), rng);
  const PreemptPrimitive prim = primitive;
  cluster.sim().at(40.0, [&cluster, &ds, th, prim, pieces] {
    cluster.submit(single_task_job("th", 10, th));
    if (prim == PreemptPrimitive::Wait) return;
    // Preempt whichever tl task is running.
    const JobTracker& jt = cluster.job_tracker();
    for (int i = 0; i < pieces; ++i) {
      const TaskId tid = ds.task_of("tl", i);
      if (jt.task(tid).state == TaskState::Running) {
        ds.preempt("tl", i, prim);
        if (prim == PreemptPrimitive::Suspend) {
          // Resume it once th is done.
          ds.on_complete("th", [&ds, i, prim] { ds.restore("tl", i, prim); });
        }
        break;
      }
    }
  });
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  return MetricMap{
      {"th_sojourn", jt.job(ds.job_of("th")).sojourn()},
      {"makespan", std::max(jt.job(ds.job_of("tl")).completed_at,
                            jt.job(ds.job_of("th")).completed_at)},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Task granularity: how split size changes what preemption buys",
                      "footnote 1 / §I motivation");
  Table table({"split size", "tl tasks", "wait th sojourn (s)", "susp th sojourn (s)",
               "susp advantage (s)"});
  for (const Bytes split : {32 * MiB, 64 * MiB, 128 * MiB, 256 * MiB, 512 * MiB}) {
    const auto wait = ExperimentRunner::run(
        [&](std::uint64_t seed, int) {
          return run_split(split, PreemptPrimitive::Wait, seed);
        },
        10);
    const auto susp = ExperimentRunner::run(
        [&](std::uint64_t seed, int) {
          return run_split(split, PreemptPrimitive::Suspend, seed);
        },
        10);
    const double w = wait.at("th_sojourn").mean();
    const double s = susp.at("th_sojourn").mean();
    table.row({format_bytes(split), std::to_string((512 * MiB) / split), Table::num(w),
               Table::num(s), Table::num(w - s)});
  }
  table.print();
  std::printf(
      "\nWith minute-long tasks, waiting costs th tens of seconds; with\n"
      "fine-grained tasks the next natural completion point is near and\n"
      "wait converges toward susp (which stays flat). Preemption is a\n"
      "primitive for exactly the coarse tasks Hadoop actually runs.\n");
  return 0;
}
