#include "sched/deadline.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hadoop/events.hpp"
#include "trace/names.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

JobSpec job_with_deadline(const std::string& name, SimTime deadline, Bytes input = 512 * MiB) {
  JobSpec spec = single_task_job(name, 0, light_map_task(input));
  spec.deadline = deadline;
  return spec;
}

TEST(Deadline, EdfOrdersByDeadline) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 1;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<DeadlineScheduler>());
  // Both pending before the first launch; the later submission has the
  // earlier deadline and must run first.
  JobId relaxed{}, urgent{};
  cluster.sim().at(0.05, [&] { relaxed = cluster.submit(job_with_deadline("relaxed", 500)); });
  cluster.sim().at(0.10, [&] { urgent = cluster.submit(job_with_deadline("urgent", 120)); });
  cluster.run();
  EXPECT_LT(cluster.job_tracker().job(urgent).completed_at,
            cluster.job_tracker().job(relaxed).completed_at);
}

TEST(Deadline, UrgentArrivalPreemptsRunningJob) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 1;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DeadlineScheduler>();
  DeadlineScheduler* dl = sched.get();
  cluster.set_scheduler(std::move(sched));

  JobId background{}, urgent{};
  cluster.sim().at(0.05,
                   [&] { background = cluster.submit(job_with_deadline("bg", 1000)); });
  // Arrives at t=20 with an ~80 s task and a t=115 deadline: laxity ~15 s,
  // below the margin -> the background task must be suspended.
  cluster.sim().at(20.0, [&] { urgent = cluster.submit(job_with_deadline("urgent", 115)); });
  cluster.run();
  EXPECT_GE(dl->preemptions_issued(), 1);
  const Job& u = cluster.job_tracker().job(urgent);
  EXPECT_EQ(u.state, JobState::Succeeded);
  EXPECT_LE(u.completed_at, 115.0);  // deadline met
  // The background job was suspended, not killed.
  EXPECT_EQ(cluster.job_tracker().task(cluster.job_tracker().job(background).tasks[0])
                .attempts_started,
            1);
}

// The deadline twin of Hfsp.RefusedOrderDoesNotConsumePreemptionBudget:
// a suspend order aimed at a blacklisted tracker is refused, and with a
// budget of 1 the scheduler must exclude that victim and suspend the
// next candidate in the same heartbeat rather than charge the dead order.
TEST(Deadline, RefusedOrderDoesNotConsumePreemptionBudget) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DeadlineScheduler>();  // budget defaults to 1
  DeadlineScheduler* dl = sched.get();
  cluster.set_scheduler(std::move(sched));
  JobTracker& jt = cluster.job_tracker();

  // One relaxed job spanning both nodes. Task 0 is twice as long, so at
  // t=20 it has the least progress: LeastProgress evicts it first.
  JobId background{}, urgent{};
  cluster.sim().at(0.05, [&] {
    JobSpec spec = job_with_deadline("bg", 1000);
    spec.tasks[0].preferred_node = cluster.node(0);
    spec.tasks.push_back(light_map_task(256 * MiB));
    spec.tasks[1].preferred_node = cluster.node(1);
    background = cluster.submit(spec);
  });
  cluster.sim().at(20.0, [&] {
    const TaskId first = jt.job(background).tasks[0];
    ASSERT_EQ(jt.task(first).state, TaskState::Running);
    jt.testing_blacklist_tracker(jt.task(first).tracker);
  });
  // ~10 s of work due at t=45.5: laxity ~15 s, under the 20 s margin.
  const SimTime arrival = 20.5;
  cluster.sim().at(arrival, [&] {
    urgent = cluster.submit(job_with_deadline("urgent", 45.5, 64 * MiB));
  });

  std::vector<std::pair<TaskId, SimTime>> suspend_requests;
  jt.add_event_hook([&](const ClusterEvent& ev) {
    if (ev.type == ClusterEventType::TaskSuspendRequested) {
      suspend_requests.emplace_back(ev.task, jt.now());
    }
  });
  cluster.run();

  // The refused order did not spend the budget: the healthy task 1 was
  // suspended on the first heartbeat after the arrival, the blacklisted
  // task 0 never was.
  EXPECT_GE(dl->preemptions_issued(), 1);
  EXPECT_GE(cluster.sim().trace().counters().value(trace::names::kPolicyOrdersRefused), 1u);
  ASSERT_FALSE(suspend_requests.empty());
  for (const auto& [tid, at] : suspend_requests) {
    EXPECT_EQ(tid, jt.job(background).tasks[1]);
  }
  EXPECT_LE(suspend_requests.front().second, arrival + cfg.hadoop.heartbeat_interval);
  const Job& u = jt.job(urgent);
  EXPECT_EQ(u.state, JobState::Succeeded);
  EXPECT_LE(u.completed_at, 45.5);  // deadline met
  EXPECT_EQ(jt.job(background).state, JobState::Succeeded);
}

TEST(Deadline, NoPreemptionWhenLaxityIsComfortable) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 1;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DeadlineScheduler>();
  DeadlineScheduler* dl = sched.get();
  cluster.set_scheduler(std::move(sched));
  cluster.sim().at(0.05, [&] { cluster.submit(job_with_deadline("a", 1000)); });
  cluster.sim().at(10.0, [&] { cluster.submit(job_with_deadline("b", 900)); });
  cluster.run();
  EXPECT_EQ(dl->preemptions_issued(), 0);
}

TEST(Deadline, LaxityAccountsForProgress) {
  ClusterConfig cfg = paper_cluster();
  Cluster cluster(cfg);
  auto sched = std::make_unique<DeadlineScheduler>();
  DeadlineScheduler* dl = sched.get();
  cluster.set_scheduler(std::move(sched));
  JobId id{};
  cluster.sim().at(0.05, [&] { id = cluster.submit(job_with_deadline("j", 200)); });
  cluster.run_until(45.0);
  // Halfway through: remaining work ~40 s, laxity ~200-45-40.
  EXPECT_NEAR(dl->remaining_work(id), 40.0, 10.0);
  EXPECT_NEAR(dl->laxity(id), 115.0, 12.0);
}

TEST(Deadline, JobsWithoutDeadlinesRunLast) {
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 1;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<DeadlineScheduler>());
  JobId nodeadline{}, dated{};
  cluster.sim().at(0.05, [&] {
    nodeadline = cluster.submit(single_task_job("free", 0, light_map_task()));
  });
  cluster.sim().at(0.10, [&] { dated = cluster.submit(job_with_deadline("dated", 300)); });
  cluster.run();
  EXPECT_LT(cluster.job_tracker().job(dated).completed_at,
            cluster.job_tracker().job(nodeadline).completed_at);
}

}  // namespace
}  // namespace osap
