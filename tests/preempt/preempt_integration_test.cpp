// Preemptor + resume-locality behaviour against a live cluster.
#include <gtest/gtest.h>

#include "preempt/preemptor.hpp"
#include "preempt/resume_locality.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

struct Rig {
  explicit Rig(ClusterConfig cfg = paper_cluster()) : cluster(cfg) {
    auto sched = std::make_unique<DummyScheduler>(cluster);
    ds = sched.get();
    cluster.set_scheduler(std::move(sched));
  }
  Cluster cluster;
  DummyScheduler* ds = nullptr;
};

TEST(Preemptor, WaitIsNoOp) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3, [&] {
    Preemptor preemptor(rig.cluster.job_tracker());
    EXPECT_TRUE(preemptor.preempt(rig.ds->task_of("tl", 0), PreemptPrimitive::Wait));
    EXPECT_EQ(rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0)).state,
              TaskState::Running);
  });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(Preemptor, SuspendThenRestore) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3, [&] {
    Preemptor preemptor(rig.cluster.job_tracker());
    EXPECT_TRUE(preemptor.preempt(rig.ds->task_of("tl", 0), PreemptPrimitive::Suspend));
  });
  rig.cluster.sim().at(50.0, [&] {
    Preemptor preemptor(rig.cluster.job_tracker());
    EXPECT_TRUE(preemptor.restore(rig.ds->task_of("tl", 0), PreemptPrimitive::Suspend));
  });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(Preemptor, RestoreBeforeAckIsRejected) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3, [&] {
    Preemptor preemptor(rig.cluster.job_tracker());
    EXPECT_TRUE(preemptor.preempt(rig.ds->task_of("tl", 0), PreemptPrimitive::Suspend));
    // Task is MUST_SUSPEND: the ack has not arrived yet.
    EXPECT_FALSE(preemptor.restore(rig.ds->task_of("tl", 0), PreemptPrimitive::Suspend));
  });
  rig.cluster.sim().at(50.0, [&] {
    Preemptor preemptor(rig.cluster.job_tracker());
    EXPECT_TRUE(preemptor.restore(rig.ds->task_of("tl", 0), PreemptPrimitive::Suspend));
  });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(ResumeLocality, HomeNodeResumeWhenSlotFrees) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  auto policy = std::make_shared<ResumeLocalityPolicy>(rig.cluster.job_tracker(), seconds(60));
  rig.cluster.sim().at(50.0, [&, policy] {
    policy->request_resume(rig.ds->task_of("tl", 0));
    TrackerStatus status;
    status.tracker = TrackerId{0};
    status.node = rig.cluster.node(0);
    status.free_map_slots = 1;
    EXPECT_EQ(policy->on_heartbeat(status), 1);
    EXPECT_EQ(policy->pending(), 0u);
  });
  rig.cluster.run();
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(ResumeLocality, ForeignNodeWaitsUntilThresholdThenKills) {
  Rig rig;
  TaskSpec spec = light_map_task();
  spec.preferred_node = rig.cluster.node(0);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  rig.ds->at_progress("tl", 0, 0.3,
                      [&] { rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  auto policy = std::make_shared<ResumeLocalityPolicy>(rig.cluster.job_tracker(), seconds(10));
  TrackerStatus foreign;
  foreign.tracker = TrackerId{99};
  foreign.node = NodeId{99};
  foreign.free_map_slots = 1;
  rig.cluster.sim().at(50.0, [&, policy] {
    policy->request_resume(rig.ds->task_of("tl", 0));
    // A foreign tracker offers a slot immediately: inside the threshold,
    // the policy holds out for the home node.
    EXPECT_EQ(policy->on_heartbeat(foreign), 0);
    EXPECT_EQ(policy->pending(), 1u);
  });
  rig.cluster.sim().at(65.0, [&, policy] {
    // Past the threshold the suspend degenerates into a delayed kill; the
    // kill command rides the next heartbeat, so the state is still
    // SUSPENDED here.
    policy->on_heartbeat(foreign);
    EXPECT_EQ(rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0)).state,
              TaskState::Suspended);
  });
  rig.cluster.run();
  const Task& task = rig.cluster.job_tracker().task(rig.ds->task_of("tl", 0));
  EXPECT_EQ(task.attempts_started, 2);  // restarted from scratch
  EXPECT_EQ(rig.cluster.job_tracker().job(rig.ds->job_of("tl")).state, JobState::Succeeded);
}

}  // namespace
}  // namespace osap
