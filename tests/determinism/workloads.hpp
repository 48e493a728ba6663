// Shared determinism workloads: the five stressful scenarios whose trace
// digests define the reproducibility law. Used by determinism_test.cpp
// (double-run and tracing-invariance) and golden_digest_test.cpp (the
// committed digest constants that pin the event stream across refactors
// of the simulator core — see docs/PERF.md).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "revoke/lifetime.hpp"
#include "revoke/manager.hpp"
#include "sched/dummy.hpp"
#include "sched/fifo.hpp"
#include "sched/hfsp.hpp"
#include "sim/simulation.hpp"
#include "workload/profiles.hpp"

namespace osap {

/// Many light mappers racing for a few slots: stresses scheduler and
/// heartbeat-report ordering (the task_tracker / job_tracker loops).
inline std::uint64_t run_map_heavy(std::uint64_t seed, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 3;
  cfg.hadoop.map_slots = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    cluster.submit(single_task_job("map" + std::to_string(i), i % 3,
                                   jitter_task(light_map_task(128 * MiB), rng)));
  }
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

/// A seeded suspend/resume/kill storm: stresses the preemption state
/// machines and the RM/JT victim-selection tie-breaks.
inline std::uint64_t run_preemption_heavy(std::uint64_t seed, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.hadoop.map_slots = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  cluster.set_scheduler(std::move(sched));
  auto rng = std::make_shared<Rng>(seed);

  std::vector<JobId> jobs;
  for (int i = 0; i < 4; ++i) {
    const Bytes state = (i % 2 == 0) ? 0 : gib(1.0);
    TaskSpec spec =
        state > 0 ? hungry_map_task(state, 128 * MiB) : light_map_task(128 * MiB);
    jobs.push_back(cluster.submit(single_task_job("job" + std::to_string(i), i % 3, spec)));
  }

  JobTracker& jt = cluster.job_tracker();
  auto storm = [&cluster, &jt, rng, jobs](auto self) -> void {
    if (cluster.sim().now() > 90.0) return;
    std::vector<TaskId> live, suspended;
    for (JobId jid : jobs) {
      for (TaskId tid : jt.job(jid).tasks) {
        const Task& t = jt.task(tid);
        if (t.state == TaskState::Running) live.push_back(tid);
        if (t.state == TaskState::Suspended) suspended.push_back(tid);
      }
    }
    switch (rng->uniform_int(0, 2)) {
      case 0:
        if (!live.empty()) jt.suspend_task(live[rng->next_u64() % live.size()]);
        break;
      case 1:
        if (!suspended.empty()) jt.resume_task(suspended[rng->next_u64() % suspended.size()]);
        break;
      case 2:
        if (!live.empty() && rng->uniform() < 0.3) {
          jt.kill_task(live[rng->next_u64() % live.size()]);
        }
        break;
    }
    cluster.sim().after(3.0, [self] { self(self); });
  };
  cluster.sim().at(5.0, [storm] { storm(storm); });

  auto cleanup = [&cluster, &jt, jobs](auto self) -> void {
    bool any = false;
    for (JobId jid : jobs) {
      for (TaskId tid : jt.job(jid).tasks) {
        if (jt.task(tid).state == TaskState::Suspended) {
          jt.resume_task(tid);
          any = true;
        }
      }
    }
    if (any || !jt.all_jobs_done()) cluster.sim().after(10.0, [self] { self(self); });
  };
  cluster.sim().at(95.0, [cleanup] { cleanup(cleanup); });

  cluster.run_until(3000.0);
  EXPECT_TRUE(jt.all_jobs_done());
  return cluster.trace_digest();
}

/// Two stateful mappers whose combined footprint overcommits RAM: the
/// VMM reclaims, swaps, and (possibly) OOM-kills — the code paths where
/// hash-order victim selection used to hide. It draws no random numbers,
/// so every seed runs the same stream.
inline std::uint64_t run_memory_pressure(std::uint64_t /*seed*/, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  cluster.submit(single_task_job("hog0", 1, hungry_map_task(gib(1.5), 64 * MiB)));
  cluster.submit(single_task_job("hog1", 0, hungry_map_task(gib(1.5), 64 * MiB)));
  cluster.submit(single_task_job("light", 2, light_map_task(64 * MiB)));
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

/// A scripted fault storm — crash, daemon hang past the lease, a
/// heartbeat-drop window and a congested link — over a map-heavy
/// workload. The recovery machinery (lease sweep, TaskLost requeues,
/// reinit-on-rejoin) runs the same code paths the fault tests exercise;
/// here the law is that the whole storm replays bit-identically.
inline std::uint64_t run_fault_storm(std::uint64_t seed, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 3;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    cluster.submit(single_task_job("map" + std::to_string(i), i % 3,
                                   jitter_task(light_map_task(128 * MiB), rng)));
  }
  fault::FaultInjector injector(cluster, fault::parse_fault_plan(
                                             "drop-heartbeats 3 8 0\n"
                                             "delay-messages 0 60 1 0.05\n"
                                             "hang 6 1 12\n"
                                             "crash 15 2\n"));
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

/// Speculative execution under duress: two stragglers (one SIGTSTP-
/// suspended, one Natjam-parked) trip the detector, their copies race on
/// slots freed by the suspensions, and a node crash lands mid-race. The
/// detector sweep, first-finisher-wins resolution and promote-on-loss
/// paths all feed the digest; a cleanup loop then resumes whatever is
/// still parked so the run can actually finish.
inline std::uint64_t run_speculation_storm(std::uint64_t seed, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  cfg.hadoop.speculative_execution = true;
  cfg.hadoop.speculative_cap = 2;
  cfg.hadoop.speculative_min_runtime = seconds(10);
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  Rng rng(seed);
  JobSpec job;
  job.name = "spec";
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec = jitter_task(light_map_task(256 * MiB), rng);
    spec.preferred_node = cluster.node(i);
    job.tasks.push_back(spec);
  }
  cluster.submit_at(0.05, job);
  ds.at_progress("spec", 0, 0.3,
                 [&ds] { ds.preempt("spec", 0, PreemptPrimitive::Suspend); });
  ds.at_progress("spec", 1, 0.5,
                 [&ds] { ds.preempt("spec", 1, PreemptPrimitive::NatjamCheckpoint); });
  fault::FaultInjector injector(cluster, fault::parse_fault_plan("crash 55 3\n"));

  JobTracker& jt = cluster.job_tracker();
  auto cleanup = [&cluster, &jt, &ds](auto self) -> void {
    for (TaskId tid : jt.job(ds.job_of("spec")).tasks) {
      if (jt.task(tid).state == TaskState::Suspended) jt.resume_task(tid);
    }
    if (!jt.all_jobs_done()) cluster.sim().after(10.0, [self] { self(self); });
  };
  cluster.sim().at(150.0, [cleanup] { cleanup(cleanup); });

  cluster.run_until(3000.0);
  EXPECT_TRUE(jt.all_jobs_done());
  return cluster.trace_digest();
}

/// A deliberate tie factory for victim selection: two byte-identical big
/// jobs (same remaining size — a head-job tie) whose four identical
/// tasks fill all four slots in the same heartbeat (progress, memory and
/// launch-time ties across the whole eviction pool), then a stream of
/// identical tiny jobs forcing HFSP to preempt over that tied pool again
/// and again. Every choice must fall through to the task-id tie-break;
/// anything order- or address-dependent in pick_victim lands here. It
/// draws no random numbers, so every seed runs the same stream.
inline std::uint64_t run_tie_heavy(std::uint64_t /*seed*/, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.hadoop.map_slots = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  options.max_preemptions_per_heartbeat = 2;
  cluster.set_scheduler(std::make_unique<HfspScheduler>(options));
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.name = "big" + std::to_string(i);
    spec.tasks.push_back(light_map_task(256 * MiB));
    spec.tasks.push_back(light_map_task(256 * MiB));
    cluster.submit(spec);
  }
  for (int i = 0; i < 3; ++i) {
    cluster.sim().at(10.0 + 10.0 * i, [&cluster, i] {
      const std::string name = "tiny" + std::to_string(i);
      cluster.submit(single_task_job(name, 0, light_map_task(32 * MiB)));
    });
  }
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

/// What the size-based contention run exercised, counted from the
/// JobTracker's event stream.
struct HfspSpeculationStats {
  int suspends = 0;
  /// Resume requests for a task whose job was not the HFSP head (the
  /// front of the remaining-size order) when the request was issued.
  int non_head_resumes = 0;
  int speculative_launches = 0;
};

/// HFSP + susp with speculation on, under contention: three multi-task
/// jobs with uneven task sizes fill every slot, then a stream of small
/// jobs keeps preempting them. Parked victims come back through the
/// non-head resume walk once a head job has no queued work, and the
/// frozen progress of a parked attempt makes it look like a straggler,
/// so copies launch too — some on the heartbeat of a tracker hosting
/// none of the job's attempts, which only a straggler bound coming due
/// on its own can trigger. Both per-heartbeat indexes — jobs with parked
/// tasks and the speculation agenda — feed the digest.
inline std::uint64_t run_hfsp_speculation(std::uint64_t seed, bool tracing = false,
                                          HfspSpeculationStats* stats = nullptr) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 8;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.speculative_execution = true;
  cfg.hadoop.speculative_min_runtime = seconds(10);
  cfg.hadoop.speculative_cap = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  cluster.set_scheduler(std::make_unique<HfspScheduler>(options));
  JobTracker& jt = cluster.job_tracker();
  if (stats != nullptr) {
    jt.add_event_hook([&jt, stats](const ClusterEvent& e) {
      if (e.type == ClusterEventType::TaskSuspended) ++stats->suspends;
      if (e.type == ClusterEventType::TaskSpeculated) ++stats->speculative_launches;
      if (e.type == ClusterEventType::TaskResumeRequested && jt.smallest_job() != e.job) {
        ++stats->non_head_resumes;
      }
    });
  }
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.name = "big" + std::to_string(i);
    for (int t = 0; t < 8; ++t) {
      spec.tasks.push_back(jitter_task(light_map_task((96 + 48 * t) * MiB), rng, 0.1));
    }
    cluster.submit(spec);
  }
  for (int i = 0; i < 12; ++i) {
    TaskSpec small = jitter_task(light_map_task(48 * MiB), rng, 0.1);
    cluster.sim().at(8.0 + 11.0 * i, [&cluster, i, small] {
      cluster.submit(single_task_job("small" + std::to_string(i), 0, small));
    });
  }
  cluster.run_until(3000.0);
  EXPECT_TRUE(jt.all_jobs_done());
  return cluster.trace_digest();
}

/// What the crash-teardown run found on the crashed tracker at the crash
/// instant.
struct CrashTeardownStats {
  bool parked = false;      ///< the suspended task's attempt is SIGTSTP-parked
  bool in_cleanup = false;  ///< the killed task's attempt is in kill cleanup
};

/// A node crash that lands while its tracker hosts a SIGTSTP-parked
/// attempt and another attempt in kill cleanup: the crash teardown must
/// SIGKILL the first and retire the second (whose process is already
/// gone), in task-id order. Lease expiry then requeues both tasks onto
/// the surviving node.
inline std::uint64_t run_crash_mid_cleanup(std::uint64_t seed, bool tracing = false,
                                           CrashTeardownStats* stats = nullptr) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  Rng rng(seed);
  const char* const names[] = {"parked", "killed", "filler"};
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec = jitter_task(light_map_task(256 * MiB), rng);
    spec.preferred_node = cluster.node(0);
    cluster.submit_at(0.05 + 0.01 * i, single_task_job(names[i], 0, spec));
  }
  ds.at_progress("parked", 0, 0.3,
                 [&ds] { ds.preempt("parked", 0, PreemptPrimitive::Suspend); });
  ds.at_progress("killed", 0, 0.5, [&ds] { ds.preempt("killed", 0, PreemptPrimitive::Kill); });
  // Scheduled ahead of the injector's crash at the same instant, so it
  // sees the tracker as the teardown will find it.
  constexpr SimTime kCrashAt = 26.0;
  if (stats != nullptr) {
    cluster.sim().at(kCrashAt, [&cluster, &ds, stats] {
      const TaskTracker& tt = cluster.tracker(cluster.node(0));
      const Kernel& kernel = cluster.kernel(cluster.node(0));
      const Process* parked = kernel.find(tt.attempt_pid(ds.task_of("parked", 0)));
      stats->parked = parked != nullptr && parked->state() == ProcState::Stopped;
      const TaskId killed = ds.task_of("killed", 0);
      stats->in_cleanup = tt.hosts_task(killed) && !kernel.alive(tt.attempt_pid(killed));
    });
  }
  fault::FaultInjector injector(cluster, fault::parse_fault_plan("crash 26 0\n"));
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

/// Two processes of equal resident size on a swapless node, then a third
/// whose allocation cannot be met: the OOM killer's badness tie between
/// the first two must go to the lower pid. `victim` receives the name of
/// the process the killer chose.
inline std::uint64_t run_oom_tie(std::string* victim = nullptr) {
  OsConfig cfg;
  cfg.ram = 1024 * MiB;
  cfg.os_reserved = 0;
  cfg.swap_size = 0;
  cfg.lru_approx_error = 0;
  cfg.vm_chunk = 32 * MiB;
  cfg.cores = 2;
  Simulation sim;
  Kernel kernel(sim, cfg, "n0");
  const auto note = [victim](const char* name) {
    return ProcessHooks{.on_exit = [victim, name](ExitInfo e) {
      if (victim != nullptr && e.reason == ExitReason::OomKilled) *victim = name;
    }};
  };
  for (const char* name : {"twin0", "twin1"}) {
    kernel.spawn(ProgramBuilder(name).alloc("heap", 400 * MiB).compute(20.0).build(),
                 note(name));
  }
  sim.at(5.0, [&kernel, &note] {
    kernel.spawn(ProgramBuilder("late").alloc("heap", 400 * MiB).compute(1.0).build(),
                 note("late"));
  });
  sim.run();
  return sim.trace_digest();
}

/// How often each trigger of the nested-watch run fired.
struct NestedWatchStats {
  int a_fired = 0;
  int b_fired = 0;
  int c_fired = 0;
};

/// A watch armed inside a watch: job a's at_progress(0.3) callback
/// submits job b, whose at_progress(0.5) trigger was registered before b
/// existed, so b's watch is armed from inside a's callback while a's
/// poll is still running. b's callback suspends a. A third trigger sits
/// on job c at a threshold no progress reaches, so c finishes first and
/// its watch must never fire.
inline std::uint64_t run_nested_watches(std::uint64_t seed, bool tracing = false,
                                        NestedWatchStats* stats = nullptr) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.hadoop.map_slots = 2;
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  auto counts = std::make_shared<NestedWatchStats>();
  Rng rng(seed);
  const TaskSpec a = jitter_task(light_map_task(256 * MiB), rng);
  const TaskSpec b = jitter_task(light_map_task(128 * MiB), rng);
  const TaskSpec c = jitter_task(light_map_task(64 * MiB), rng);
  cluster.submit_at(0.05, single_task_job("a", 0, a));
  cluster.submit_at(0.06, single_task_job("c", 0, c));
  ds.at_progress("b", 0, 0.5, [&ds, counts] {
    ++counts->b_fired;
    ds.preempt("a", 0, PreemptPrimitive::Suspend);
  });
  ds.at_progress("a", 0, 0.3, [&cluster, counts, b] {
    ++counts->a_fired;
    cluster.submit(single_task_job("b", 5, b));
  });
  ds.at_progress("c", 0, 2.0, [counts] { ++counts->c_fired; });
  ds.on_complete("b", [&ds] { ds.restore("a", 0, PreemptPrimitive::Suspend); });
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  if (stats != nullptr) *stats = *counts;
  return cluster.trace_digest();
}

/// A revocation storm: half the cluster is transient with short sampled
/// lifetimes, each death preceded by a warning, and the manager rescues
/// work Natjam-style (checkpoint on warning, evacuate, resume). The
/// warning handler, drain and evacuation all feed the digest; the law is
/// the whole storm replays bit-identically and the tracer observes
/// without perturbing it.
inline std::uint64_t run_revocation_storm(std::uint64_t seed, bool tracing = false) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  cfg.trace.enabled = tracing;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  cluster.set_scheduler(std::make_unique<HfspScheduler>(options));
  Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    cluster.submit(single_task_job("map" + std::to_string(i), i % 4,
                                   jitter_task(light_map_task(128 * MiB), rng)));
  }
  revoke::LifetimeOptions lopts;
  lopts.model = revoke::LifetimeModel::Exponential;
  lopts.node_mix = 0.5;
  lopts.mean_lifetime_s = 60;
  lopts.warning_s = 15;
  lopts.seed = seed;
  revoke::RevocationPlan rplan = revoke::plan_revocations(4, lopts);
  fault::FaultPlan fplan;
  rplan.merge_into(fplan);
  fault::FaultInjector injector(cluster, std::move(fplan));
  revoke::RevocationManager manager(cluster, injector, rplan,
                                    revoke::Reaction::Checkpoint);
  cluster.run_until(3000.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  return cluster.trace_digest();
}

}  // namespace osap
