// Failure model & recovery (docs/FAULTS.md).
//
// These tests drive the fault-injection subsystem end to end: scripted
// node crashes, tracker hangs and heartbeat-drop storms against real
// workloads, with the JobTracker's heartbeat-lease expiry, bounded task
// re-execution and blacklisting doing the recovery. The headline case —
// a node crash while its task sits SIGTSTP-suspended — verifies the full
// chain: lease expiry, TaskLost requeue, re-execution on a surviving
// node, and the failure counters landing in the observability JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/run.hpp"
#include "fault/injector.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"
#include "workload/swim.hpp"

namespace osap {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::parse_fault_plan;

/// Count emitted cluster events by type (the tests' view of recovery).
struct EventCounts {
  explicit EventCounts(JobTracker& jt) {
    jt.add_event_hook([this](const ClusterEvent& e) { ++counts[static_cast<int>(e.type)]; });
  }
  [[nodiscard]] int of(ClusterEventType type) const {
    const auto it = counts.find(static_cast<int>(type));
    return it == counts.end() ? 0 : it->second;
  }
  std::map<int, int> counts;
};

ClusterConfig fast_expiry_cluster(int nodes) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = nodes;
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- FaultPlan parser -------------------------------------------------------

TEST(FaultPlan, ParsesEveryVerbAndComments) {
  const FaultPlan plan = parse_fault_plan(
      "# fault schedule\n"
      "crash 40 0\n"
      "\n"
      "hang 10 1 15   # daemon wedges for 15 s\n"
      "drop-heartbeats 5 20 0\n"
      "delay-messages 0 60 1 0.25\n"
      "lose-checkpoints 30 2\n"
      "revoke 50 1 12   # 12 s of notice before node 1 dies\n");
  EXPECT_EQ(plan.size(), 6u);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.crashes[0].at, 40.0);
  EXPECT_EQ(plan.crashes[0].node, NodeId{0});
  ASSERT_EQ(plan.hangs.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.hangs[0].duration, 15.0);
  ASSERT_EQ(plan.heartbeat_drops.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.heartbeat_drops[0].until, 20.0);
  ASSERT_EQ(plan.delays.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.delays[0].extra, 0.25);
  ASSERT_EQ(plan.checkpoint_losses.size(), 1u);
  EXPECT_EQ(plan.checkpoint_losses[0].node, NodeId{2});
  ASSERT_EQ(plan.revocations.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.revocations[0].at, 50.0);
  EXPECT_EQ(plan.revocations[0].node, NodeId{1});
  EXPECT_DOUBLE_EQ(plan.revocations[0].warning, 12.0);
}

TEST(FaultPlan, EmptyInputIsEmptyPlan) {
  EXPECT_TRUE(parse_fault_plan("# nothing but comments\n\n").empty());
}

TEST(FaultPlan, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_fault_plan("crash forty 0\n"), SimError);
  EXPECT_THROW((void)parse_fault_plan("hang 10 0 0\n"), SimError);       // duration > 0
  EXPECT_THROW((void)parse_fault_plan("drop-heartbeats 20 5 0\n"), SimError);  // until > from
  EXPECT_THROW((void)parse_fault_plan("explode 10 0\n"), SimError);
  EXPECT_THROW((void)parse_fault_plan("revoke 50 1\n"), SimError);     // missing warning
  EXPECT_THROW((void)parse_fault_plan("revoke 50 1 0\n"), SimError);   // warning > 0
}

// Numbers are read exactly and a line carries exactly its verb's
// arguments: `1x` is not node 1, and a trailing token is not a comment.
TEST(FaultPlan, RejectsTrailingTextAndExtraTokens) {
  for (const char* text : {"crash 10 1x\n", "crash 10 1 junk\n", "crash 10s 1\n",
                           "crash 10 1.0\n", "hang 10 0 15 0\n", "lose-checkpoints 30 -2\n",
                           "delay-messages 0 60 1 0.25ms\n", "crash nan 1\n",
                           "crash inf 1\n"}) {
    try {
      (void)parse_fault_plan(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("fault plan line 1"), std::string::npos) << e.what();
    }
  }
  const FaultPlan plan = parse_fault_plan("crash 10 1   # trailing comment\n");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].node, NodeId{1});
  EXPECT_DOUBLE_EQ(plan.crashes[0].at, 10.0);
}

TEST(FaultPlan, DuplicateDeathOnOneNodeAtOneTimestampIsAParseError) {
  // One teardown per (node, time): a plan scheduling the same death twice
  // must fail at parse with the offending line number, not double-crash
  // at run time.
  try {
    (void)parse_fault_plan(
        "crash 40 0\n"
        "revoke 40 0 10\n");
    FAIL() << "duplicate death parsed";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)parse_fault_plan("crash 40 0\ncrash 40 0\n"), SimError);
  EXPECT_THROW((void)parse_fault_plan("revoke 40 0 5\nrevoke 40 0 9\n"), SimError);
  // Different timestamps (a revocation racing an earlier scripted crash)
  // stay legal — the injector's crashed-guard resolves them at run time.
  EXPECT_EQ(parse_fault_plan("crash 5 2\nrevoke 20 2 5\n").size(), 2u);
}

// --- tentpole: node crash during suspension --------------------------------

// A node dies while its task sits SIGTSTP-suspended. The heartbeat lease
// expires, the JobTracker forfeits the suspended attempt (TaskLost, no
// attempt-budget charge) and the task re-executes from scratch on the
// surviving node. The failure counters must land in the observability
// JSON and the tracker_lost span in the trace JSON.
TEST(FaultRecovery, NodeCrashDuringSuspendReexecutesOnSurvivor) {
  const std::string counters_path = "fault_crash_counters.json";
  const std::string trace_path = "fault_crash_trace.json";
  ClusterConfig cfg = fast_expiry_cluster(2);
  cfg.trace.enabled = true;
  cfg.trace.counters_file = counters_path;
  cfg.trace.trace_file = trace_path;
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  TaskSpec victim = light_map_task();
  victim.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("victim", 0, victim));
  ds.at_progress("victim", 0, 0.3,
                 [&ds] { ds.preempt("victim", 0, PreemptPrimitive::Suspend); });

  FaultInjector injector(cluster, parse_fault_plan("crash 40 0\n"));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("victim", 0));
  EXPECT_EQ(jt.job(ds.job_of("victim")).state, JobState::Succeeded);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.attempts_started, 2);  // crashed attempt + re-execution
  EXPECT_EQ(task.attempts_failed, 0);   // loss never charges the budget
  EXPECT_EQ(task.completed_node, cluster.node(1));
  EXPECT_TRUE(jt.tracker_lost(cluster.tracker(cluster.node(0)).id()));
  EXPECT_TRUE(injector.node_crashed(cluster.node(0)));
  EXPECT_EQ(events.of(ClusterEventType::TrackerLost), 1);
  EXPECT_EQ(events.of(ClusterEventType::TaskLost), 1);
  EXPECT_EQ(events.of(ClusterEventType::JobFailed), 0);

  // Acceptance: the failure counters are readable from the observability
  // JSON, and the trace JSON carries the tracker_lost / node_crash spans.
  const std::string counters = slurp(counters_path);
  EXPECT_NE(counters.find("\"jobtracker.trackers_lost\":1"), std::string::npos) << counters;
  EXPECT_NE(counters.find("\"jobtracker.tasks_lost\":1"), std::string::npos);
  EXPECT_NE(counters.find("\"fault.node_crashes\":1"), std::string::npos);
  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("tracker_lost"), std::string::npos);
  EXPECT_NE(trace.find("node_crash"), std::string::npos);
  std::remove(counters_path.c_str());
  std::remove(trace_path.c_str());
}

// --- satellite: heartbeat-drop storm below the lease threshold -------------

TEST(FaultRecovery, HeartbeatDropStormBelowLeaseThresholdIsHarmless) {
  // 15 s of dropped heartbeats against a 30 s lease (the defaults): the
  // tracker must never be declared lost and the job completes on time.
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("steady", 0, light_map_task()));

  FaultInjector injector(cluster, parse_fault_plan("drop-heartbeats 5 20 0\n"));
  cluster.run();

  EXPECT_EQ(cluster.job_tracker().job(ds.job_of("steady")).state, JobState::Succeeded);
  EXPECT_FALSE(cluster.job_tracker().tracker_lost(cluster.tracker(cluster.node(0)).id()));
  EXPECT_EQ(events.of(ClusterEventType::TrackerLost), 0);
  EXPECT_EQ(events.of(ClusterEventType::TaskLost), 0);
  // The storm really dropped traffic (otherwise the test proves nothing).
  EXPECT_GT(cluster.network().messages_dropped(), 0u);
  const Task& task = cluster.job_tracker().task(ds.task_of("steady", 0));
  EXPECT_EQ(task.attempts_started, 1);
}

// --- satellite: completed-map re-execution unblocks a shuffling reduce -----

TEST(FaultRecovery, LostMapOutputReexecutesAndReleasesReduce) {
  // Map A finishes on node 0; node 0 then dies while map B still runs and
  // the reduce shuffles on node 1. Hadoop 1 serves map output from the
  // worker's local disk, so A's output died with the node: the JobTracker
  // must re-run the *Succeeded* map or the reduce blocks forever.
  ClusterConfig cfg = fast_expiry_cluster(2);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));

  JobSpec job;
  job.name = "mr";
  TaskSpec map_a = light_map_task(256 * MiB);  // ~40 s
  map_a.preferred_node = cluster.node(0);
  TaskSpec map_b = light_map_task(512 * MiB);  // ~77 s
  map_b.preferred_node = cluster.node(1);
  TaskSpec reduce;
  reduce.type = TaskType::Reduce;
  reduce.shuffle_bytes = 128 * MiB;
  reduce.sort_cpu_seconds = 5.0;
  reduce.input_bytes = 0;
  reduce.output_bytes = 64 * MiB;
  reduce.framework_memory = 160 * MiB;
  reduce.preferred_node = cluster.node(1);
  job.tasks.push_back(map_a);
  job.tasks.push_back(map_b);
  job.tasks.push_back(reduce);
  cluster.submit_at(0.05, job);

  FaultInjector injector(cluster, parse_fault_plan("crash 45 0\n"));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  EXPECT_EQ(jt.job(ds.job_of("mr")).state, JobState::Succeeded);
  EXPECT_EQ(events.of(ClusterEventType::MapOutputLost), 1);
  const Task& rerun = jt.task(ds.task_of("mr", 0));
  EXPECT_EQ(rerun.attempts_started, 2);  // once on node 0, re-run on node 1
  EXPECT_EQ(rerun.completed_node, cluster.node(1));
  const Task& red = jt.task(ds.task_of("mr", 2));
  EXPECT_EQ(red.state, TaskState::Succeeded);
  // The reduce could only finish after the re-executed map released it.
  EXPECT_GT(red.completed_at, rerun.completed_at - 1.0);
}

// --- satellite: attempt cap ------------------------------------------------

TEST(FaultRecovery, AttemptCapFailsJobTerminally) {
  // No swap + a state bigger than RAM: every attempt is OOM-killed, an
  // unrequested death that charges the attempt budget. After
  // `max_task_attempts` failures the task fails terminally and takes the
  // job down with a JobFailed event — instead of relaunching forever.
  ClusterConfig cfg = paper_cluster();
  cfg.os.swap_size = 0;
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  const JobId job = cluster.submit(single_task_job("doomed", 0, hungry_map_task(6 * GiB)));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  EXPECT_EQ(jt.job(job).state, JobState::Failed);
  EXPECT_GE(jt.job(job).completed_at, 0.0);
  const Task& task = jt.task(jt.job(job).tasks[0]);
  EXPECT_EQ(task.state, TaskState::Failed);
  EXPECT_EQ(task.attempts_failed, cfg.hadoop.max_task_attempts);
  EXPECT_EQ(task.attempts_started, cfg.hadoop.max_task_attempts);
  EXPECT_EQ(events.of(ClusterEventType::JobFailed), 1);
  EXPECT_EQ(events.of(ClusterEventType::TaskFailed), cfg.hadoop.max_task_attempts);
}

// --- satellite: blacklisting ------------------------------------------------

TEST(FaultRecovery, RepeatedFailuresBlacklistTracker) {
  // A lower blacklist threshold than the attempt cap: after two OOM kills
  // the only tracker is blacklisted, nothing can host the third attempt,
  // and the cluster fails the job rather than spinning forever.
  ClusterConfig cfg = paper_cluster();
  cfg.os.swap_size = 0;
  cfg.hadoop.tracker_blacklist_failures = 2;
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  const JobId job = cluster.submit(single_task_job("doomed", 0, hungry_map_task(6 * GiB)));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  EXPECT_TRUE(jt.tracker_blacklisted(cluster.tracker(cluster.node(0)).id()));
  EXPECT_EQ(events.of(ClusterEventType::TrackerBlacklisted), 1);
  EXPECT_EQ(jt.job(job).state, JobState::Failed);
  const Task& task = jt.task(jt.job(job).tasks[0]);
  EXPECT_EQ(task.attempts_failed, 2);  // blacklist preempted the cap of 4
}

// --- satellite: tracker hang, lease expiry, rejoin-reinit -------------------

TEST(FaultRecovery, HangPastLeaseReinitializesOnRejoin) {
  // The daemon wedges for 15 s against a 9 s lease: the JobTracker
  // declares it lost and reassigns its task to the other node. When the
  // hang clears, the tracker's stale heartbeat earns a ReinitTracker
  // order (its zombie attempt dies silently) and the lost flag clears.
  ClusterConfig cfg = fast_expiry_cluster(2);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  TaskSpec spec = light_map_task();
  spec.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("wedged", 0, spec));

  FaultInjector injector(cluster, parse_fault_plan("hang 10 0 15\n"));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  EXPECT_EQ(jt.job(ds.job_of("wedged")).state, JobState::Succeeded);
  EXPECT_EQ(events.of(ClusterEventType::TrackerLost), 1);
  // The rejoin cleared the lost flag (and never blacklisted anything).
  const TrackerId hung = cluster.tracker(cluster.node(0)).id();
  EXPECT_FALSE(jt.tracker_lost(hung));
  EXPECT_FALSE(jt.tracker_blacklisted(hung));
  EXPECT_FALSE(cluster.tracker(cluster.node(0)).crashed());
  const Task& task = jt.task(ds.task_of("wedged", 0));
  EXPECT_EQ(task.attempts_started, 2);
  EXPECT_EQ(task.attempts_failed, 0);
  EXPECT_EQ(task.completed_node, cluster.node(1));
}

// --- satellite: requeue clears per-attempt state ---------------------------

TEST(FaultRecovery, KillOfRelaunchedCheckpointTaskKeepsDurableCheckpoint) {
  // Natjam checkpoint, resume (relaunch with fast-forward), then kill the
  // relaunched attempt. The requeue must clear the per-attempt flags
  // (checkpointed / use_checkpoint / paging totals / completion stamp)
  // but keep the durable checkpoint files, so the third attempt
  // fast-forwards again instead of starting from zero.
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("ckpt", 0, hungry_map_task(512 * MiB)));
  ds.at_progress("ckpt", 0, 0.5,
                 [&ds] { ds.preempt("ckpt", 0, PreemptPrimitive::NatjamCheckpoint); });
  JobTracker& jt = cluster.job_tracker();
  bool killed_relaunch = false;
  cluster.sim().at(60.0, [&] {
    // By now the task is checkpoint-parked; relaunch it...
    ASSERT_TRUE(jt.task(ds.task_of("ckpt", 0)).checkpointed);
    ds.restore("ckpt", 0, PreemptPrimitive::NatjamCheckpoint);
  });
  cluster.sim().at(75.0, [&] {
    // ...and kill the relaunched attempt mid-flight.
    const Task& t = jt.task(ds.task_of("ckpt", 0));
    ASSERT_EQ(t.state, TaskState::Running);
    ASSERT_GT(t.spec.checkpoint_progress, 0.0);
    killed_relaunch = jt.kill_task(t.id);
  });
  cluster.run();

  EXPECT_TRUE(killed_relaunch);
  const Task& task = jt.task(ds.task_of("ckpt", 0));
  EXPECT_EQ(jt.job(ds.job_of("ckpt")).state, JobState::Succeeded);
  EXPECT_EQ(task.attempts_started, 3);  // original, relaunch, post-kill relaunch
  // Durable checkpoint survived the kill-requeue: the final attempt still
  // fast-forwarded past the checkpointed half.
  EXPECT_GT(task.spec.checkpoint_progress, 0.0);
  // Per-attempt flags did not leak through the requeue.
  EXPECT_FALSE(task.checkpointed);
  EXPECT_FALSE(task.use_checkpoint);
}

TEST(FaultRecovery, KillBeforeCheckpointCompletesDoesNotLeakUseCheckpoint) {
  // Regression for the use_checkpoint leak: request a checkpoint-suspend
  // and kill the task before the Checkpointed ack. The requeued attempt
  // must come back clean — a later plain suspend is SIGTSTP (no
  // checkpoint), so the task resumes in place with no extra attempt.
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("leaky", 0, hungry_map_task(512 * MiB)));
  JobTracker& jt = cluster.job_tracker();
  ds.at_progress("leaky", 0, 0.4, [&] {
    const TaskId id = ds.task_of("leaky", 0);
    ASSERT_TRUE(jt.checkpoint_suspend_task(id));
    // Kill immediately: the MustSuspend attempt dies before checkpointing.
    ASSERT_TRUE(jt.kill_task(id));
  });
  cluster.sim().at(90.0, [&] {
    const Task& t = jt.task(ds.task_of("leaky", 0));
    ASSERT_EQ(t.state, TaskState::Running);
    EXPECT_FALSE(t.use_checkpoint) << "use_checkpoint leaked across the requeue";
    ASSERT_TRUE(jt.suspend_task(t.id));
  });
  cluster.sim().at(100.0, [&] {
    const Task& t = jt.task(ds.task_of("leaky", 0));
    // SIGTSTP suspension: still bound to its tracker, not checkpointed.
    ASSERT_EQ(t.state, TaskState::Suspended);
    EXPECT_FALSE(t.checkpointed);
    EXPECT_TRUE(t.tracker.valid());
    jt.resume_task(t.id);
  });
  cluster.run();

  const Task& task = jt.task(ds.task_of("leaky", 0));
  EXPECT_EQ(jt.job(ds.job_of("leaky")).state, JobState::Succeeded);
  EXPECT_EQ(task.attempts_started, 2);  // killed attempt + clean rerun
  EXPECT_EQ(task.spec.checkpoint_progress, 0.0);
}

// --- satellite: checkpoint disk loss ---------------------------------------

TEST(FaultRecovery, CheckpointDiskLossRequeuesParkedTask) {
  // The node's disk loses its checkpoint files while the task is parked
  // on them: nothing to resume, so the task requeues from scratch.
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("parked", 0, hungry_map_task(512 * MiB)));
  ds.at_progress("parked", 0, 0.5,
                 [&ds] { ds.preempt("parked", 0, PreemptPrimitive::NatjamCheckpoint); });

  FaultInjector injector(cluster, parse_fault_plan("lose-checkpoints 60 0\n"));
  cluster.run();

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("parked", 0));
  EXPECT_EQ(jt.job(ds.job_of("parked")).state, JobState::Succeeded);
  EXPECT_EQ(events.of(ClusterEventType::TaskLost), 1);
  EXPECT_EQ(task.attempts_started, 2);
  // The fast-forward state is gone: the rerun started from zero.
  EXPECT_EQ(task.spec.checkpoint_progress, 0.0);
  EXPECT_EQ(task.spec.checkpoint_state, 0u);
  EXPECT_EQ(task.attempts_failed, 0);
}

// --- injector bookkeeping ---------------------------------------------------

TEST(FaultInjectorTest, MessageDelayWindowDelaysWithoutDropping) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("slow", 0, light_map_task()));

  FaultInjector injector(cluster, parse_fault_plan("delay-messages 0 40 0 0.2\n"));
  cluster.run();

  EXPECT_EQ(cluster.job_tracker().job(ds.job_of("slow")).state, JobState::Succeeded);
  EXPECT_GT(cluster.network().messages_delayed(), 0u);
  EXPECT_EQ(cluster.network().messages_dropped(), 0u);
}

// The parser rejects only same-instant duplicates, so a plan may kill a
// node that an earlier line already killed. The second death is a no-op:
// it is not counted and not traced, and the run completes.
TEST(FaultRecovery, SecondDeathOfADeadNodeIsANoOp) {
  struct Case {
    const char* faults;
    int crashes;
    int revocations;
  };
  for (const Case& c : {Case{"crash 10 1|crash 20 1", 1, 0},
                        Case{"revoke 50 1 20|crash 60 1", 0, 1}}) {
    SCOPED_TRACE(c.faults);
    const std::string counters_path = "fault_second_death_counters.json";
    core::RunOptions opts;
    opts.counters_file = counters_path;
    const core::ResultRecord rec = core::run_descriptor(
        core::RunDescriptor::parse(std::string("workload=trace;faults=") + c.faults), opts);
    EXPECT_TRUE(rec.ok) << rec.error;
    const std::string counters = slurp(counters_path);
    const auto value = [&counters](const std::string& name) {
      const std::size_t at = counters.find("\"" + name + "\":");
      return at == std::string::npos ? -1 : std::atoi(counters.c_str() + at + name.size() + 3);
    };
    EXPECT_EQ(value("fault.node_crashes"), c.crashes) << counters;
    EXPECT_EQ(value("fault.revocations"), c.revocations) << counters;
    std::remove(counters_path.c_str());
  }
}

TEST(FaultInjectorTest, CrashSilencesAllTrafficBothWays) {
  // After the crash fires, nothing flows to or from the dead node: the
  // surviving cluster just sees silence (that's what the lease is for).
  ClusterConfig cfg = fast_expiry_cluster(2);
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  TaskSpec spec = light_map_task();
  spec.preferred_node = cluster.node(1);
  cluster.submit_at(0.05, single_task_job("survivor", 0, spec));

  FaultInjector injector(cluster, parse_fault_plan("crash 5 0\n"));
  cluster.run();

  EXPECT_TRUE(injector.node_crashed(cluster.node(0)));
  EXPECT_FALSE(injector.node_crashed(cluster.node(1)));
  EXPECT_TRUE(cluster.tracker(cluster.node(0)).crashed());
  // The dead node went silent at the source (its tracker stops sending),
  // so the master saw only silence and expired the lease.
  EXPECT_TRUE(cluster.job_tracker().tracker_lost(cluster.tracker(cluster.node(0)).id()));
  EXPECT_EQ(cluster.job_tracker().job(ds.job_of("survivor")).state, JobState::Succeeded);
}

// A heartbeat's round-trip span closes when the response that echoes its
// id arrives, or at once, marked dropped, when the network drops it. So
// no span waits on another heartbeat's response: the `osap trace` cell
// (hfsp + susp, 12 jobs on 4 nodes, seed 7) under a drop storm on node1
// closes every span within one round trip.
TEST(FaultInjectorTest, DroppedHeartbeatsCloseTheirSpans) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  cfg.trace.enabled = true;
  Cluster cluster(cfg);
  cluster.set_scheduler(core::make_scheduler("hfsp", PreemptPrimitive::Suspend));
  SwimConfig swim;
  swim.jobs = 12;
  Rng rng(7);
  for (SwimJob& job : generate_swim_trace(swim, rng)) {
    cluster.submit_at(job.arrival, std::move(job.spec));
  }
  FaultInjector injector(cluster, parse_fault_plan("drop-heartbeats 5 40 1\n"));
  cluster.run();
  ASSERT_TRUE(cluster.job_tracker().all_jobs_done());
  // Let the responses in flight when the last job finished land.
  cluster.run_until(cluster.sim().now() + 2 * cfg.net.latency);

  struct Open {
    SimTime at;
    bool closed = false;
  };
  std::map<std::tuple<trace::TrackId, std::string, std::uint64_t>, Open> spans;
  int dropped = 0;
  double longest = 0;
  for (const trace::TraceEvent& e : cluster.sim().trace().tracer().events()) {
    if (e.name != "heartbeat" && e.name != "oob_heartbeat") continue;
    const auto key = std::make_tuple(e.track, e.name, e.id);
    if (e.phase == 'b') {
      EXPECT_TRUE(spans.emplace(key, Open{e.ts}).second) << e.name << " " << e.id << " reopened";
    } else if (e.phase == 'e') {
      const auto it = spans.find(key);
      ASSERT_NE(it, spans.end()) << e.name << " " << e.id << " ends unopened";
      EXPECT_FALSE(it->second.closed) << e.name << " " << e.id << " ends twice";
      it->second.closed = true;
      longest = std::max(longest, e.ts - it->second.at);
      if (e.args.find("\"dropped\":1") != std::string::npos) {
        ++dropped;
        EXPECT_EQ(e.ts, it->second.at) << "a dropped heartbeat's span ends when it is sent";
      }
    }
  }
  int open = 0;
  for (const auto& [key, span] : spans) open += span.closed ? 0 : 1;
  EXPECT_EQ(open, 0) << "of " << spans.size() << " heartbeat spans";
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(dropped), cluster.network().messages_dropped());
  EXPECT_LE(longest, 2 * cfg.net.latency + 1e-6);
}

}  // namespace
}  // namespace osap
