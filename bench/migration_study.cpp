// §V-A: three ways to handle a suspended task whose home node stays busy.
//
//   wait-for-home   — hold the suspension until the home slot frees
//   delayed-kill    — restart from scratch on the idle node (the resume-
//                     locality fallback)
//   criu-migrate    — dump + ship + restore the frozen process on the
//                     idle node (the paper's suggested future work)
//
// tl (with varying state size) is suspended at 50% while its home node is
// pinned for ~160 s and a second node idles.
#include <cstdio>

#include "bench_util.hpp"
#include "preempt/migration.hpp"
#include "sched/dummy.hpp"

namespace osap {
namespace {

enum class Strategy { WaitForHome, DelayedKill, Migrate };

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::WaitForHome: return "wait-for-home";
    case Strategy::DelayedKill: return "delayed-kill";
    case Strategy::Migrate: return "criu-migrate";
  }
  return "?";
}

MetricMap run_strategy(Strategy strategy, Bytes state, std::uint64_t seed) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.seed = seed;
  Cluster cluster(cfg);
  Rng rng(seed);
  auto sched = std::make_unique<DummyScheduler>(cluster, seconds(1e9));
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec tl = jitter_task(state > 0 ? hungry_map_task(state) : light_map_task(), rng);
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));
  ds.at_progress("tl", 0, 0.5, [&cluster, &ds, &rng] {
    for (int i = 0; i < 2; ++i) {
      TaskSpec high = jitter_task(light_map_task(), rng);
      high.preferred_node = cluster.node(0);
      cluster.submit(single_task_job("high" + std::to_string(i), 10, high));
    }
    ds.preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  auto migrator = std::make_shared<TaskMigrator>(cluster);
  // Home node frees around t ~205 s; the alternatives act at t = 60 s.
  switch (strategy) {
    case Strategy::WaitForHome: {
      auto poll = [&cluster, &ds](auto self) -> void {
        const Task& t = cluster.job_tracker().task(ds.task_of("tl", 0));
        if (t.done()) return;
        if (t.state == TaskState::Suspended &&
            cluster.tracker(cluster.node(0)).free_map_slots() > 0) {
          cluster.job_tracker().resume_task(t.id);
          return;
        }
        cluster.sim().after(3.0, [self] { self(self); });
      };
      cluster.sim().at(60.0, [poll] { poll(poll); });
      break;
    }
    case Strategy::DelayedKill:
      cluster.sim().at(60.0, [&cluster, &ds] {
        cluster.job_tracker().kill_task(ds.task_of("tl", 0));
      });
      break;
    case Strategy::Migrate:
      cluster.sim().at(60.0, [&cluster, &ds, migrator] {
        migrator->migrate(ds.task_of("tl", 0), cluster.node(1));
      });
      break;
  }
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  const Job& tl_job = jt.job(ds.job_of("tl"));
  return MetricMap{
      {"tl_sojourn", tl_job.sojourn()},
      {"attempts", static_cast<double>(jt.task(tl_job.tasks[0]).attempts_started)},
      {"image_mib", to_mib(migrator->bytes_moved())},
  };
}

}  // namespace
}  // namespace osap

int main() {
  using namespace osap;
  bench::print_header("Suspended task vs busy home node: wait, delayed kill, or migrate",
                      "§V-A resume locality + CRIU future work");
  for (const Bytes state : {Bytes{0}, Bytes{2} * GiB}) {
    std::printf("\ntask state: %s\n", state == 0 ? "none (light-weight)" : "2 GiB");
    Table table({"strategy", "tl sojourn (s)", "attempts", "image shipped (MiB)"});
    for (Strategy strategy :
         {Strategy::WaitForHome, Strategy::DelayedKill, Strategy::Migrate}) {
      const auto agg = ExperimentRunner::run(
          [&](std::uint64_t seed, int) { return run_strategy(strategy, state, seed); }, 10);
      table.row({to_string(strategy), Table::num(agg.at("tl_sojourn").mean()),
                 Table::num(agg.at("attempts").mean(), 1),
                 Table::num(agg.at("image_mib").mean(), 0)});
    }
    table.print();
  }
  std::printf(
      "\nMigration preserves the work like waiting and uses the idle node\n"
      "like the delayed kill — paying instead with image I/O and network\n"
      "transfer, which grows with the task's memory footprint (the paper's\n"
      "caution about moving large state across the network).\n");
  return 0;
}
