// §V-A: resume locality.
//
// A suspended process can only resume on its own machine. If that machine
// stays busy, the delay-scheduling-style policy waits up to a threshold
// for a home slot, then falls back to kill + restart elsewhere ("the
// suspend is effectively analogous to a delayed kill"). We park tl on a
// node that stays busy for ~150 s while a second node idles, and sweep
// the threshold: small thresholds restart early (work lost, earlier
// finish); large thresholds preserve work but wait.
#include <cstdio>

#include "bench_util.hpp"
#include "preempt/resume_locality.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

MetricMap run_threshold(Duration threshold, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed);
  // Infinite locality delay: pinned tasks never drift to another node, so
  // the filler jobs keep the home node genuinely busy.
  auto sched = std::make_unique<DummyScheduler>(cluster, seconds(1e9));
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  // tl itself is unpinned: tracker 0 heartbeats first, so it launches on
  // node 0, and after a delayed kill it may restart on the idle node 1.
  TaskSpec tl = jitter_task(light_map_task(), rng);
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));

  // At 50% of tl: suspend it and hand node 0 to two back-to-back
  // high-priority tasks (~160 s of occupancy).
  ds.at_progress("tl", 0, 0.5, [&cluster, &ds, &rng] {
    for (int i = 0; i < 2; ++i) {
      TaskSpec high = jitter_task(light_map_task(), rng);
      high.preferred_node = cluster.node(0);
      cluster.submit(single_task_job("high" + std::to_string(i), 10, high));
    }
    ds.preempt("tl", 0, PreemptPrimitive::Suspend);
  });

  // Drive the resume-locality policy from a heartbeat-rate poll over both
  // trackers (standing in for a scheduler integration).
  auto policy =
      std::make_shared<ResumeLocalityPolicy>(cluster.job_tracker(), threshold);
  auto tick = [&cluster, &ds, policy](auto self) -> void {
    const Task& t = cluster.job_tracker().task(ds.task_of("tl", 0));
    if (t.done()) return;
    if (t.state == TaskState::Suspended) policy->request_resume(t.id);
    for (int n = 0; n < 2; ++n) {
      TaskTracker& tt = cluster.tracker(cluster.node(n));
      TrackerStatus status;
      status.tracker = tt.id();
      status.node = tt.node();
      status.free_map_slots = tt.free_map_slots();
      status.free_reduce_slots = tt.free_reduce_slots();
      policy->on_heartbeat(status);
    }
    cluster.sim().after(3.0, [self] { self(self); });
  };
  cluster.sim().at(1.0, [tick] { tick(tick); });
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  const Task& t = jt.task(ds.task_of("tl", 0));
  return MetricMap{
      {"tl_sojourn", jt.job(ds.job_of("tl")).sojourn()},
      {"attempts", static_cast<double>(t.attempts_started)},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Resume locality: wait for the home node vs delayed kill",
                      "§V-A discussion (resume locality)");
  Table table({"threshold (s)", "tl sojourn (s)", "tl attempts", "outcome"});
  for (double threshold : {5.0, 30.0, 60.0, 300.0}) {
    const auto agg = ExperimentRunner::run(
        [&](std::uint64_t seed, int) { return run_threshold(threshold, seed); },
        bench::kRuns);
    const double attempts = agg.at("attempts").mean();
    table.row({Table::num(threshold, 0), Table::num(agg.at("tl_sojourn").mean()),
               Table::num(attempts, 2),
               attempts > 1.5 ? "restarted remotely (work lost)"
                              : "resumed on home node (work kept)"});
  }
  table.print();
  std::printf(
      "\nSmall thresholds act like a delayed kill: tl finishes sooner on\n"
      "the idle node but redoes its work; large thresholds preserve the\n"
      "suspended work at the cost of waiting for the home slot.\n");
  return 0;
}
