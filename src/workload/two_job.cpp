#include "workload/two_job.hpp"

#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "sched/dummy.hpp"

namespace osap {

TwoJobResult run_two_job(const TwoJobParams& params) {
  OSAP_CHECK(params.progress_at_launch > 0 && params.progress_at_launch < 1);
  ClusterConfig ccfg = params.cluster;
  ccfg.seed = params.seed;
  Cluster cluster(ccfg);
  Rng rng(params.seed);

  auto scheduler = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *scheduler;
  cluster.set_scheduler(std::move(scheduler));

  const NodeId worker = cluster.node(0);
  cluster.create_input("input_tl", 512 * MiB, worker);
  cluster.create_input("input_th", 512 * MiB, worker);

  TaskSpec tl_spec = params.tl_state > 0 ? hungry_map_task(params.tl_state) : light_map_task();
  TaskSpec th_spec = params.th_state > 0 ? hungry_map_task(params.th_state) : light_map_task();
  tl_spec.preferred_node = worker;
  th_spec.preferred_node = worker;
  tl_spec = jitter_task(tl_spec, rng, params.jitter);
  th_spec = jitter_task(th_spec, rng, params.jitter);

  // tl enters an otherwise idle system.
  cluster.submit_at(0.05, single_task_job("tl", /*priority=*/0, tl_spec));

  // At r% of tl: submit th and apply the primitive under study.
  const PreemptPrimitive primitive = params.primitive;
  ds.at_progress("tl", 0, params.progress_at_launch, [&cluster, &ds, th_spec, primitive] {
    cluster.submit(single_task_job("th", /*priority=*/10, th_spec));
    ds.preempt("tl", 0, primitive);
  });

  // Once th completes, give the slot back to tl.
  ds.on_complete("th", [&ds, primitive] { ds.restore("tl", 0, primitive); });

  std::unique_ptr<fault::FaultInjector> injector;
  if (!params.fault_plan.empty()) {
    std::istringstream plan(params.fault_plan);
    injector = std::make_unique<fault::FaultInjector>(cluster, fault::parse_fault_plan(plan));
  }

  cluster.run(params.tick);
  if (params.inspect) params.inspect(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Job& tl = jt.job(ds.job_of("tl"));
  const Job& th = jt.job(ds.job_of("th"));
  OSAP_CHECK_MSG(tl.state == JobState::Succeeded && th.state == JobState::Succeeded,
                 "two-job experiment did not complete");

  TwoJobResult result;
  result.sojourn_th = th.sojourn();
  result.sojourn_tl = tl.sojourn();
  result.makespan =
      std::max(tl.completed_at, th.completed_at) - std::min(tl.submitted_at, th.submitted_at);
  const Task& tl_task = jt.task(tl.tasks.front());
  result.tl_swapped_out = tl_task.swapped_out;
  result.tl_swapped_in = tl_task.swapped_in;
  Kernel& kernel = cluster.kernel(worker);
  result.node_swap_out = kernel.disk().transferred(IoClass::SwapOut);
  result.node_swap_in = kernel.disk().transferred(IoClass::SwapIn);
  return result;
}

Duration solo_task_duration(TaskSpec spec, ClusterConfig cluster_cfg, std::uint64_t seed) {
  cluster_cfg.seed = seed;
  Cluster cluster(cluster_cfg);
  auto scheduler = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *scheduler;
  cluster.set_scheduler(std::move(scheduler));
  spec.preferred_node = cluster.node(0);
  cluster.create_input("input", spec.input_bytes, cluster.node(0));
  cluster.submit_at(0.05, single_task_job("solo", 0, spec));
  cluster.run();
  return cluster.job_tracker().job(ds.job_of("solo")).sojourn();
}

}  // namespace osap
