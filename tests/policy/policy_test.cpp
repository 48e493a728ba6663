// The per-queue preemption-policy engine: rule lookup keyed on the
// victim's queue, memory-pressure demotion, Requeue's pin-clearing kill,
// the refused-order outcome, and the engine behind every scheduler.
#include "policy/policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "sched/fifo.hpp"
#include "sched/hfsp.hpp"
#include "trace/names.hpp"
#include "workload/profiles.hpp"

namespace osap::policy {
namespace {

/// Two single-task jobs on different queues, both running by t=20 (two
/// nodes, one map slot each).
struct TwoQueueRig {
  explicit TwoQueueRig(ClusterConfig cfg = paper_cluster()) {
    cfg.num_nodes = 2;
    cluster = std::make_unique<Cluster>(cfg);
    cluster->set_scheduler(std::make_unique<FifoScheduler>());
    JobSpec a = single_task_job("prod0", 0, light_map_task());
    a.queue = "prod";
    prod = cluster->submit(a);
    JobSpec b = single_task_job("batch0", 0, light_map_task());
    b.queue = "batch";
    batch = cluster->submit(b);
    cluster->run_until(20.0);
  }
  [[nodiscard]] TaskId task_of(JobId job) const {
    return cluster->job_tracker().job(job).tasks.front();
  }
  std::unique_ptr<Cluster> cluster;
  JobId prod, batch;
};

TEST(PreemptionPolicy, RulesKeyOnTheVictimsQueue) {
  TwoQueueRig rig;
  PolicyOptions opts;
  opts.per_queue = {{"batch", PreemptPrimitive::Kill}};
  PreemptionPolicy policy(rig.cluster->job_tracker(), PreemptPrimitive::Suspend, opts);
  EXPECT_EQ(policy.decide(rig.task_of(rig.prod)), PreemptPrimitive::Suspend);
  EXPECT_EQ(policy.decide(rig.task_of(rig.batch)), PreemptPrimitive::Kill);
}

TEST(PreemptionPolicy, SwapPressureDemotesSuspendFamilyToKill) {
  TwoQueueRig rig;
  PolicyOptions opts;
  opts.per_queue = {{"batch", PreemptPrimitive::NatjamCheckpoint}};
  opts.swap_watermark = 0.9;
  opts.probe = [](NodeId) { return 0.95; };
  PreemptionPolicy hot(rig.cluster->job_tracker(), PreemptPrimitive::Suspend, opts);
  EXPECT_EQ(hot.decide(rig.task_of(rig.prod)), PreemptPrimitive::Kill);
  EXPECT_EQ(hot.decide(rig.task_of(rig.batch)), PreemptPrimitive::Kill);

  opts.probe = [](NodeId) { return 0.2; };
  PreemptionPolicy cool(rig.cluster->job_tracker(), PreemptPrimitive::Suspend, opts);
  EXPECT_EQ(cool.decide(rig.task_of(rig.prod)), PreemptPrimitive::Suspend);
  EXPECT_EQ(cool.decide(rig.task_of(rig.batch)), PreemptPrimitive::NatjamCheckpoint);

  const auto& reg = rig.cluster->sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicySwapDemotions), 0u)
      << "decide() is read-only; only preempt() counts demotions";
}

TEST(PreemptionPolicy, KillRuleIsNotDemotionProof) {
  // An explicit Kill rule under pressure is still just Kill — the
  // demotion counter must not fire for it.
  TwoQueueRig rig;
  PolicyOptions opts;
  opts.swap_watermark = 0.9;
  opts.probe = [](NodeId) { return 0.95; };
  PreemptionPolicy policy(rig.cluster->job_tracker(), PreemptPrimitive::Kill, opts);
  const Outcome out = policy.preempt(rig.task_of(rig.batch));
  EXPECT_TRUE(out.issued);
  EXPECT_EQ(out.primitive, PreemptPrimitive::Kill);
  const auto& reg = rig.cluster->sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicySwapDemotions), 0u);
  EXPECT_EQ(reg.value(trace::names::kPolicyKills), 1u);
}

TEST(PreemptionPolicy, RequeueClearsTheLocalityPinAndKills) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  TaskSpec pinned = light_map_task(128 * MiB);
  JobId job{};
  cluster.sim().at(0.05, [&] {
    JobSpec spec = single_task_job("pinned", 0, pinned);
    spec.tasks[0].preferred_node = cluster.node(0);
    job = cluster.submit(spec);
  });

  JobTracker& jt = cluster.job_tracker();
  auto policy = std::make_unique<PreemptionPolicy>(jt, PreemptPrimitive::Requeue);
  cluster.sim().at(10.0, [&] {
    const TaskId tid = jt.job(job).tasks.front();
    ASSERT_EQ(jt.task(tid).state, TaskState::Running);
    const Outcome out = policy->preempt(tid);
    EXPECT_TRUE(out.issued);
    EXPECT_EQ(out.primitive, PreemptPrimitive::Requeue);
    EXPECT_FALSE(jt.task(tid).spec.preferred_node.valid());
  });
  cluster.run();

  const Task& t = jt.task(jt.job(job).tasks.front());
  EXPECT_EQ(jt.job(job).state, JobState::Succeeded);
  EXPECT_EQ(t.attempts_started, 2);  // killed once, relaunched anywhere
  const auto& reg = cluster.sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicyRequeues), 1u);
}

TEST(PreemptionPolicy, RefusedOrderIsNotIssued) {
  TwoQueueRig rig;
  JobTracker& jt = rig.cluster->job_tracker();
  const TaskId victim = rig.task_of(rig.batch);
  jt.testing_blacklist_tracker(jt.task(victim).tracker);

  PreemptionPolicy policy(jt, PreemptPrimitive::Suspend);
  const Outcome out = policy.preempt(victim);
  EXPECT_FALSE(out.issued);
  const auto& reg = rig.cluster->sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicyOrdersRefused), 1u);
}

TEST(PreemptionPolicy, DefaultSchedulerOptionsCountEveryEviction) {
  // No PolicyOptions set: the scheduler still evicts through its engine,
  // so every order it issues is a counted decision.
  Cluster cluster(paper_cluster());
  auto sched = std::make_unique<HfspScheduler>(HfspScheduler::Options{});
  HfspScheduler* hfsp = sched.get();
  cluster.set_scheduler(std::move(sched));
  cluster.sim().at(0.05, [&] { cluster.submit(single_task_job("big", 0, light_map_task())); });
  cluster.sim().at(20.0, [&] {
    cluster.submit(single_task_job("tiny", 0, light_map_task(64 * MiB)));
  });
  cluster.run();
  ASSERT_GE(hfsp->preemptions_issued(), 1);
  const auto& reg = cluster.sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicyDecisions),
            static_cast<std::uint64_t>(hfsp->preemptions_issued()));
  EXPECT_EQ(reg.value(trace::names::kPolicySuspends),
            static_cast<std::uint64_t>(hfsp->preemptions_issued()));
}

}  // namespace
}  // namespace osap::policy
