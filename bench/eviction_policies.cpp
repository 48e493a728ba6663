// §V-A: task eviction policies.
//
// The primitive decides *how* to preempt; the scheduler decides *whom*.
// Scenario: two low-priority tasks occupy both slots — an early,
// memory-hungry one (more progress, 2 GiB state) and a later light one —
// when a high-priority, memory-hungry job arrives. Each policy picks a
// different victim; we report the high job's sojourn, the workload
// makespan and the node's total swap traffic.
#include <cstdio>

#include "bench_util.hpp"
#include "preempt/eviction.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

MetricMap run_policy(EvictionPolicy policy, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec hungry = jitter_task(hungry_map_task(2 * GiB), rng);
  TaskSpec light = jitter_task(light_map_task(), rng);
  TaskSpec high = jitter_task(hungry_map_task(gib(1.5)), rng);
  hungry.preferred_node = light.preferred_node = high.preferred_node = cluster.node(0);

  cluster.submit_at(0.05, single_task_job("low_hungry", 0, hungry));
  cluster.submit_at(15.0, single_task_job("low_light", 0, light));

  auto victim = std::make_shared<TaskId>();
  ds.at_progress("low_hungry", 0, 0.6, [&cluster, &ds, high, policy, victim] {
    cluster.submit(single_task_job("high", 10, high));
    JobTracker& jt = cluster.job_tracker();
    auto candidates = collect_candidates(jt, ds.job_of("low_hungry"));
    auto more = collect_candidates(jt, ds.job_of("low_light"));
    candidates.insert(candidates.end(), more.begin(), more.end());
    *victim = pick_victim(policy, candidates);
    if (victim->valid()) jt.suspend_task(*victim);
  });
  ds.on_complete("high", [&cluster, victim] {
    if (victim->valid()) cluster.job_tracker().resume_task(*victim);
  });
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  double makespan = 0;
  for (JobId id : jt.jobs_in_order()) makespan = std::max(makespan, jt.job(id).completed_at);
  Kernel& kernel = cluster.kernel(cluster.node(0));
  return MetricMap{
      {"high_sojourn", jt.job(ds.job_of("high")).sojourn()},
      {"makespan", makespan},
      {"swap_out_mib", to_mib(kernel.disk().transferred(IoClass::SwapOut))},
      {"swap_in_mib", to_mib(kernel.disk().transferred(IoClass::SwapIn))},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Eviction-policy study under the suspend primitive",
                      "§V-A discussion (policy table)");
  Table table({"eviction policy", "high sojourn (s)", "makespan (s)", "swap-out (MiB)",
               "swap-in (MiB)"});
  for (EvictionPolicy policy :
       {EvictionPolicy::MostProgress, EvictionPolicy::LeastProgress,
        EvictionPolicy::SmallestMemory, EvictionPolicy::LastLaunched}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_policy(policy, seed); }, bench::kRuns);
    table.row({to_string(policy), Table::num(agg.at("high_sojourn").mean()),
               Table::num(agg.at("makespan").mean()),
               Table::num(agg.at("swap_out_mib").mean(), 0),
               Table::num(agg.at("swap_in_mib").mean(), 0)});
  }
  table.print();
  std::printf(
      "\nIn this scenario the hungry task is both the most-progressed and\n"
      "the largest: suspending it parks its idle state where the VMM can\n"
      "page it out once and cheaply, while suspending the light task\n"
      "leaves the hungry one running — its cold state is evicted anyway\n"
      "and faults back in at finalization, costing more total paging.\n"
      "Victim footprint interacts with *which* memory stays live, the\n"
      "trade-off §V-A asks schedulers to weigh.\n");
  return 0;
}
