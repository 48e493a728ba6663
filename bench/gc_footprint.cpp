// §V-B: controlling the memory footprint.
//
// "When writing task implementations, it is good measure to … optimize
// for lower memory footprints. … It is therefore a good idea to configure
// Java to use a garbage collector that does release memory, such as the
// new G1 implementation; it is also possible to hint the garbage
// collector to run using System.gc() after disposing of large objects."
//
// tl carries 2.5 GiB of state. A "hoarding" JVM keeps it until exit; a
// GC-friendly task releases it after 40% of the input. th (2 GiB) arrives
// at 60% of tl — past the release point — so the GC-friendly tl has
// almost nothing left to page.
#include <cstdio>

#include "bench_util.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

MetricMap run_variant(double state_lifetime, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec tl = jitter_task(hungry_map_task(gib(2.5)), rng);
  tl.state_lifetime = state_lifetime;
  TaskSpec th = jitter_task(hungry_map_task(2 * GiB), rng);
  tl.preferred_node = th.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));
  ds.at_progress("tl", 0, 0.6, [&cluster, &ds, th] {
    cluster.submit(single_task_job("th", 10, th));
    ds.preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  ds.on_complete("th", [&ds] { ds.restore("tl", 0, PreemptPrimitive::Suspend); });
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  const Task& tl_task = jt.task(ds.task_of("tl", 0));
  double makespan = 0;
  for (JobId id : jt.jobs_in_order()) makespan = std::max(makespan, jt.job(id).completed_at);
  return MetricMap{
      {"th_sojourn", jt.job(ds.job_of("th")).sojourn()},
      {"makespan", makespan},
      {"tl_swap_out_mib", to_mib(tl_task.swapped_out)},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Memory-footprint control: hoarding vs releasing GC",
                      "§V-B implications on task implementation");
  Table table({"task behaviour", "th sojourn (s)", "makespan (s)", "tl paged out (MiB)"});
  struct Variant {
    const char* label;
    double lifetime;
  };
  for (const Variant v : {Variant{"holds 2.5 GiB until exit (lazy GC)", 1.0},
                          Variant{"releases state at 40% (G1 / System.gc())", 0.4}}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_variant(v.lifetime, seed); }, bench::kRuns);
    table.row({v.label, Table::num(agg.at("th_sojourn").mean()),
               Table::num(agg.at("makespan").mean()),
               Table::num(agg.at("tl_swap_out_mib").mean(), 0)});
  }
  table.print();
  std::printf(
      "\nReleasing memory back to the OS before it goes idle removes most\n"
      "of the suspension's paging cost — the incentive §V-B gives\n"
      "MapReduce authors once this primitive exists.\n");
  return 0;
}
