// §II use case: deadline scheduling.
//
// "In deadline scheduling [5], preemption can be used to make sure that
// jobs that are close to the deadline are run as soon as possible."
//
// A background job occupies the slot while urgent jobs with tight
// deadlines arrive. The EDF scheduler preempts with each primitive in
// turn; we report the deadline miss rate, the urgent jobs' lateness, and
// what the preemption costs the background job.
#include <cstdio>

#include "bench_util.hpp"
#include "sched/deadline.hpp"

namespace osap {
namespace {

MetricMap run_primitive(PreemptPrimitive primitive, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 1;
  Cluster cluster(cfg);
  Rng rng(seed);
  DeadlineScheduler::Options options;
  options.primitive = primitive;
  cluster.set_scheduler(std::make_unique<DeadlineScheduler>(options));

  // Background: two long tasks, no deadline.
  JobSpec bg;
  bg.name = "background";
  for (int i = 0; i < 2; ++i) bg.tasks.push_back(jitter_task(light_map_task(), rng));
  cluster.submit_at(0.05, bg);

  // Three urgent arrivals: each an ~40 s task with ~65 s of headroom.
  for (int i = 0; i < 3; ++i) {
    const SimTime arrival = 25.0 + 110.0 * i;
    JobSpec spec = single_task_job("urgent" + std::to_string(i), 0,
                                   jitter_task(light_map_task(256 * MiB), rng));
    spec.deadline = arrival + 65.0;
    cluster.submit_at(arrival, spec);
  }
  cluster.run();

  // Ids follow arrival order: the background job, then the urgent ones.
  const JobTracker& jt = cluster.job_tracker();
  const JobId bg_id = jt.jobs_in_order().front();
  int misses = 0;
  double lateness = 0;
  for (std::size_t i = 1; i < jt.jobs_in_order().size(); ++i) {
    const Job& job = jt.job(jt.jobs_in_order()[i]);
    const double over = job.completed_at - job.spec.deadline;
    if (over > 0) {
      ++misses;
      lateness += over;
    }
  }
  int bg_attempts = 0;
  for (TaskId tid : jt.job(bg_id).tasks) bg_attempts += jt.task(tid).attempts_started;
  return MetricMap{
      {"miss_rate", static_cast<double>(misses) / 3.0},
      {"lateness", lateness},
      {"bg_sojourn", jt.job(bg_id).sojourn()},
      {"bg_attempts", static_cast<double>(bg_attempts)},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Deadline (EDF) scheduling with each primitive",
                      "§II deadline-scheduling use case");
  Table table({"primitive", "deadline miss rate", "total lateness (s)",
               "background sojourn (s)", "background attempts"});
  for (PreemptPrimitive primitive :
       {PreemptPrimitive::Wait, PreemptPrimitive::Kill, PreemptPrimitive::Suspend,
        PreemptPrimitive::NatjamCheckpoint}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_primitive(primitive, seed); },
        bench::kRuns);
    table.row({to_string(primitive),
               Table::num(100.0 * agg.at("miss_rate").mean(), 0) + "%",
               Table::num(agg.at("lateness").mean()),
               Table::num(agg.at("bg_sojourn").mean()),
               Table::num(agg.at("bg_attempts").mean(), 1)});
  }
  table.print();
  std::printf(
      "\nWaiting misses deadlines; killing meets them by burning the\n"
      "background job's work (extra attempts); suspension meets them\n"
      "while the background job keeps everything it has done.\n");
  return 0;
}
