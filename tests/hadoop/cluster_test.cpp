// End-to-end tests of the Hadoop layer: heartbeat protocol, the paper's
// suspend/resume state machine, kill-with-cleanup, and checkpointing.
#include "hadoop/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "metrics/timeline.hpp"
#include "sched/dummy.hpp"
#include "workload/dummy_config.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

struct Rig {
  explicit Rig(ClusterConfig cfg = paper_cluster())
      : cluster(cfg), recorder(cluster.job_tracker()) {
    auto sched = std::make_unique<DummyScheduler>(cluster);
    ds = sched.get();
    cluster.set_scheduler(std::move(sched));
  }
  Cluster cluster;
  TimelineRecorder recorder;
  DummyScheduler* ds = nullptr;
};

TEST(ClusterIntegration, SingleJobCompletes) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("solo", 0, spec));
  rig.cluster.run();
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("solo"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  // ~1 s JVM + ~76 s parse + up-to-3 s heartbeat wait.
  EXPECT_GT(job.sojourn(), 75.0);
  EXPECT_LT(job.sojourn(), 85.0);
}

TEST(ClusterIntegration, TwoJobsShareOneSlotSequentially) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("a", 0, spec));
  rig.cluster.submit_at(0.10, single_task_job("b", 0, spec));
  rig.cluster.run();
  const Job& a = rig.cluster.job_tracker().job(rig.ds->job_of("a"));
  const Job& b = rig.cluster.job_tracker().job(rig.ds->job_of("b"));
  EXPECT_EQ(a.state, JobState::Succeeded);
  EXPECT_EQ(b.state, JobState::Succeeded);
  // b could only start after a finished (single map slot).
  const SimTime b_started = *rig.recorder.first(ClusterEventType::TaskLaunched,
                                                rig.cluster.job_tracker().job(b.id).tasks[0]);
  EXPECT_GE(b_started, a.completed_at - 0.1);
}

TEST(ClusterIntegration, ArrivalAfterEveryEarlierJobFinishedStillRuns) {
  // "a" is done by ~80 s; "late" arrives at 200 s into an idle cluster.
  // A pending arrival is open work, so run() must not stop at the drain.
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("a", 0, spec));
  rig.cluster.submit_at(200.0, single_task_job("late", 0, spec));
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  ASSERT_EQ(jt.jobs_in_order().size(), 2u);
  const Job& a = jt.job(jt.jobs_in_order()[0]);
  const Job& late = jt.job(jt.jobs_in_order()[1]);
  EXPECT_EQ(late.spec.name, "late");
  EXPECT_LT(a.completed_at, 200.0);
  EXPECT_EQ(late.state, JobState::Succeeded);
  EXPECT_DOUBLE_EQ(late.submitted_at, 200.0);
}

TEST(ClusterIntegration, SuspendFollowsPaperStateMachine) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  SimTime requested = -1;
  rig.ds->at_progress("tl", 0, 0.3, [&] {
    requested = rig.cluster.sim().now();
    EXPECT_TRUE(rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend));
    // The JobTracker marks the task immediately…
    EXPECT_EQ(rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0)).state,
              TaskState::MustSuspend);
  });
  rig.cluster.run_until(60.0);
  const Task& task = rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0));
  // …and the SUSPENDED ack arrives via the heartbeat protocol.
  EXPECT_EQ(task.state, TaskState::Suspended);
  const SimTime suspended = *rig.recorder.first(ClusterEventType::TaskSuspended, task.id);
  EXPECT_GT(suspended, requested);
  EXPECT_LT(suspended - requested, 3.5);  // within one heartbeat + handler
  // The slot is free while the task is parked.
  EXPECT_EQ(rig.cluster.tracker(rig.cluster.node(0)).free_map_slots(), 1);
  EXPECT_EQ(rig.cluster.tracker(rig.cluster.node(0)).suspended_tasks(), 1);
}

TEST(ClusterIntegration, SuspendResumeCompletesWithFrozenProgress) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.5,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.sim().at(60.0, [&] {
    // Parked: the schedulers' resume walks find the job through this index.
    EXPECT_TRUE(
        rig.cluster.job_tracker().jobs_with_suspended().contains(rig.ds->job_of("tl")));
    rig.ds->restore("tl", 0, PreemptPrimitive::Suspend);
  });
  rig.cluster.run();
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("tl"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  EXPECT_TRUE(rig.cluster.job_tracker().jobs_with_suspended().empty());
  // Suspended from ~40 s to ~60 s: completion shifts by the parked time,
  // no work is lost.
  EXPECT_GT(job.sojourn(), 95.0);
  EXPECT_LT(job.sojourn(), 110.0);
}

TEST(ClusterIntegration, KillLosesWorkAndReschedules) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.5, [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Kill); });
  rig.cluster.run();
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("tl"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  const Task& task = rig.cluster.job_tracker().task(job.tasks[0]);
  EXPECT_EQ(task.attempts_started, 2);
  // Half the work was redone: ~40 s lost plus cleanup.
  EXPECT_GT(job.sojourn(), 115.0);
  EXPECT_TRUE(rig.recorder.first(ClusterEventType::TaskKilled, task.id).has_value());
}

TEST(ClusterIntegration, CheckpointSuspendSerializesAndFastForwards) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.5, [&] {
    rig.ds->preempt("tl", 0, PreemptPrimitive::NatjamCheckpoint);
  });
  rig.cluster.sim().at(60.0, [&] {
    rig.ds->restore("tl", 0, PreemptPrimitive::NatjamCheckpoint);
  });
  rig.cluster.run();
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("tl"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  const Task& task = rig.cluster.job_tracker().task(job.tasks[0]);
  // Relaunched once, resumed from the saved counters (not from scratch):
  // parked ~40..60 s, remaining half takes ~40 s -> sojourn ~100-112 s.
  EXPECT_EQ(task.attempts_started, 2);
  EXPECT_GT(job.sojourn(), 95.0);
  EXPECT_LT(job.sojourn(), 115.0);
}

TEST(ClusterIntegration, SuspendedTaskCanStillBeKilled) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.sim().at(50.0, [&] {
    EXPECT_TRUE(rig.cluster.job_tracker().kill_task(rig.ds->task_of("tl", 0)));
  });
  rig.cluster.run();
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("tl"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  EXPECT_EQ(rig.cluster.job_tracker().task(job.tasks[0]).attempts_started, 2);
}

// The slot is what preemption buys (§III-B). A running attempt holds it,
// SIGTSTP frees it, a SIGKILL landing on the parked attempt takes it back
// for the cleanup attempt, and the cleanup's end frees it again before
// the KilledAck reaches the JobTracker.
TEST(ClusterIntegration, SlotFollowsTheAttemptThroughSuspendAndKill) {
  Rig rig;  // one node, one map slot
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  const TaskTracker& tt = rig.cluster.tracker(rig.cluster.node(0));
  const Kernel& kernel = rig.cluster.kernel(rig.cluster.node(0));
  JobTracker& jt = rig.cluster.job_tracker();
  std::vector<std::string> steps;
  const auto step = [&](const char* name, int free_slots, int parked) {
    steps.emplace_back(name);
    EXPECT_EQ(tt.free_map_slots(), free_slots) << name;
    EXPECT_EQ(tt.suspended_tasks(), parked) << name;
  };
  rig.cluster.sim().at(20.0, [&] {
    ASSERT_NE(kernel.find(tt.attempt_pid(rig.ds->task_of("tl", 0))), nullptr);
    step("running", 0, 0);
  });
  bool killed = false;
  jt.add_event_hook([&](const ClusterEvent& e) {
    if (e.type == ClusterEventType::TaskSuspended) step("parked", 1, 1);
    if (e.type == ClusterEventType::TaskKilled) {
      killed = true;
      EXPECT_FALSE(tt.hosts_task(e.task));
      step("acked", 1, 0);
    }
  });
  // Kill the parked attempt, then watch for its cleanup attempt: the
  // process is gone but the tracker still hosts the task.
  const auto watch_cleanup = [&](auto self) -> void {
    const TaskId tid = rig.ds->task_of("tl", 0);
    if (tt.hosts_task(tid) && !kernel.alive(tt.attempt_pid(tid))) {
      step("cleanup", 0, 0);
      return;
    }
    if (!killed) rig.cluster.sim().after(0.1, [self] { self(self); });
  };
  rig.cluster.sim().at(50.0, [&] {
    EXPECT_TRUE(jt.kill_task(rig.ds->task_of("tl", 0)));
    watch_cleanup(watch_cleanup);
  });
  rig.cluster.run();
  EXPECT_EQ(steps, (std::vector<std::string>{"running", "parked", "cleanup", "acked"}));
  EXPECT_EQ(jt.job(rig.ds->job_of("tl")).state, JobState::Succeeded);
  EXPECT_EQ(tt.free_map_slots(), 1);
}

// Killing a parked task only queues the kill: the task stays Suspended
// until its tracker reports the attempt dead. A resume in that window
// would leave it MustResume with the kill in flight.
TEST(ClusterIntegration, ResumeRefusedWhileKillIsPending) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run_until(50.0);
  JobTracker& jt = rig.cluster.job_tracker();
  const TaskId tid = rig.ds->task_of("tl", 0);
  ASSERT_EQ(jt.task(tid).state, TaskState::Suspended);
  EXPECT_TRUE(jt.kill_task(tid));
  EXPECT_EQ(jt.task(tid).state, TaskState::Suspended);
  EXPECT_FALSE(jt.resume_task(tid));
  rig.cluster.run();
  const Job& job = jt.job(rig.ds->job_of("tl"));
  EXPECT_EQ(job.state, JobState::Succeeded);
  EXPECT_EQ(jt.task(job.tasks[0]).attempts_started, 2);
}

TEST(ClusterIntegration, SuspendRejectedWhenNotRunning) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.cluster.run_until(1.0);  // before the first launch heartbeat
  EXPECT_FALSE(rig.cluster.job_tracker().suspend_task(rig.ds->task_of("tl", 0)));
  EXPECT_FALSE(rig.cluster.job_tracker().resume_task(rig.ds->task_of("tl", 0)));
}

TEST(ClusterIntegration, ProgressReportsReachJobTracker) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.cluster.run_until(45.0);
  const Task& task = rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0));
  EXPECT_GT(task.progress, 0.3);
  EXPECT_LT(task.progress, 0.8);
}

TEST(ClusterIntegration, MultiNodeSpreadsTasks) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 4;
  cfg.hadoop.map_slots = 1;
  Rig rig(cfg);
  JobSpec job;
  job.name = "wide";
  for (int i = 0; i < 4; ++i) job.tasks.push_back(light_map_task());
  rig.cluster.submit_at(0.05, job);
  rig.cluster.run();
  const Job& done = rig.cluster.job_tracker().job(rig.ds->job_of("wide"));
  EXPECT_EQ(done.state, JobState::Succeeded);
  // With 4 nodes the job is ~4x faster than serial execution.
  EXPECT_LT(done.sojourn(), 100.0);
}

TEST(ClusterIntegration, LocalityPinsTaskToPreferredNode) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  Rig rig(cfg);
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(1);
  rig.cluster.submit_at(0.05, single_task_job("pinned", 0, spec));
  rig.cluster.run();
  const Task& task =
      rig.cluster.job_tracker().task(rig.ds->task_of("pinned", 0));
  const auto launch = rig.recorder.first(ClusterEventType::TaskLaunched, task.id);
  ASSERT_TRUE(launch.has_value());
  for (const ClusterEvent& e : rig.recorder.events()) {
    if (e.type == ClusterEventType::TaskLaunched && e.task == task.id) {
      EXPECT_EQ(e.node, rig.cluster.node(1));
    }
  }
}

TEST(ClusterIntegration, WorstCaseSuspensionSwapsAndRecovers) {
  Rig rig;
  TaskSpec tl = hungry_map_task(2 * GiB);
  TaskSpec th = hungry_map_task(2 * GiB);
  tl.preferred_node = th.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, tl));
  rig.ds->at_progress("tl", 0, 0.5, [&] {
    rig.cluster.submit(single_task_job("th", 10, th));
    rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  rig.ds->on_complete("th", [&] { rig.ds->restore("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  EXPECT_EQ(jt.job(rig.ds->job_of("tl")).state, JobState::Succeeded);
  EXPECT_EQ(jt.job(rig.ds->job_of("th")).state, JobState::Succeeded);
  const Task& tl_task = jt.task(rig.ds->task_of("tl", 0));
  // tl was pushed to swap while parked and paged back in afterwards.
  EXPECT_GT(tl_task.swapped_out, 500 * MiB);
  EXPECT_GT(tl_task.swapped_in, 400 * MiB);
}

TEST(ClusterIntegration, EventsAppearInProtocolOrder) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.4,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.sim().at(60.0, [&] { rig.ds->restore("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const TaskId tid = rig.ds->task_of("tl", 0);
  const SimTime launched = *rig.recorder.first(ClusterEventType::TaskLaunched, tid);
  const SimTime susp_req = *rig.recorder.first(ClusterEventType::TaskSuspendRequested, tid);
  const SimTime suspended = *rig.recorder.first(ClusterEventType::TaskSuspended, tid);
  const SimTime resume_req = *rig.recorder.first(ClusterEventType::TaskResumeRequested, tid);
  const SimTime resumed = *rig.recorder.first(ClusterEventType::TaskResumed, tid);
  const SimTime succeeded = *rig.recorder.first(ClusterEventType::TaskSucceeded, tid);
  EXPECT_LT(launched, susp_req);
  EXPECT_LT(susp_req, suspended);
  EXPECT_LT(suspended, resume_req);
  EXPECT_LT(resume_req, resumed);
  EXPECT_LT(resumed, succeeded);
}

// The low job's task is parked twice, as configs/chained_preemptions.conf
// parks it. Each of its suspend and resume commands is piggybacked on one
// heartbeat response only: the TaskTracker applies two Suspend and two
// Resume actions for it, one per request.
TEST(ClusterIntegration, EachSuspendAndResumeCommandIsSentOnce) {
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Rig rig(cfg);
  std::istringstream conf(
      "job low priority 0 tasks 1 input 512MiB state 1GiB\n"
      "job burst1 priority 10 tasks 1 input 256MiB state 0\n"
      "job burst2 priority 10 tasks 1 input 256MiB state 0\n"
      "submit low at 0.05\n"
      "at-progress low 0 30% submit burst1\n"
      "at-progress low 0 30% preempt low 0 susp\n"
      "on-complete burst1 restore low 0 susp\n"
      "at-progress low 0 70% submit burst2\n"
      "at-progress low 0 70% preempt low 0 susp\n"
      "on-complete burst2 restore low 0 susp\n");
  load_dummy_config(conf, *rig.ds, rig.cluster);
  rig.cluster.run();
  const Task& low = rig.cluster.job_tracker().task(rig.ds->task_of("low", 0));
  EXPECT_EQ(low.state, TaskState::Succeeded);
  EXPECT_EQ(low.attempts_started, 1);
  // The TaskTracker records every action it applies as an instant on its
  // track, named after the action and carrying the task id.
  const std::string args = "\"task\":" + std::to_string(low.id.value());
  int suspends = 0;
  int resumes = 0;
  for (const trace::TraceEvent& e : rig.cluster.sim().trace().tracer().events()) {
    if (e.phase != 'i' || e.args != args) continue;
    if (e.name == to_string(ActionKind::Suspend)) ++suspends;
    if (e.name == to_string(ActionKind::Resume)) ++resumes;
  }
  EXPECT_EQ(suspends, 2);
  EXPECT_EQ(resumes, 2);
}

TEST(ClusterIntegration, WatchOnAFinishedTaskReleasesItsCallback) {
  // No progress reaches 2, so the task finishes first: the watch never
  // fires, and the first poll that sees the task done lets go of the
  // callback and everything it captured instead of keeping it until the
  // cluster dies.
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  const JobId job = rig.cluster.submit(single_task_job("solo", 0, spec));
  const TaskId task = rig.cluster.job_tracker().job(job).tasks[0];
  auto held = std::make_shared<int>(0);
  rig.cluster.watch_task_progress(task, 2.0, [held] { ++*held; });
  EXPECT_EQ(held.use_count(), 2);
  rig.cluster.run();
  ASSERT_TRUE(rig.cluster.job_tracker().task(task).done());
  // run() returns at the completion; the next poll is at most 100 ms away.
  rig.cluster.run_until(rig.cluster.sim().now() + 1.0);
  EXPECT_EQ(*held, 0);
  EXPECT_EQ(held.use_count(), 1);
}

}  // namespace
}  // namespace osap
