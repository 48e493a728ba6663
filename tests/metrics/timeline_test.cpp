#include "metrics/timeline.hpp"

#include <gtest/gtest.h>

#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

TEST(Timeline, RecordsJobLifecycle) {
  Cluster cluster(paper_cluster());
  TimelineRecorder recorder(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler* ds = sched.get();
  cluster.set_scheduler(std::move(sched));
  TaskSpec spec = light_map_task();
  spec.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("j", 0, spec));
  cluster.run();
  EXPECT_TRUE(recorder.first(ClusterEventType::JobSubmitted, ds->job_of("j")).has_value());
  EXPECT_TRUE(recorder.first(ClusterEventType::JobCompleted, ds->job_of("j")).has_value());
  EXPECT_GT(recorder.makespan(), 70.0);
}

TEST(Timeline, GanttShowsSuspensionGap) {
  Cluster cluster(paper_cluster());
  TimelineRecorder recorder(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler* ds = sched.get();
  cluster.set_scheduler(std::move(sched));
  TaskSpec spec = light_map_task();
  spec.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("tl", 0, spec));
  ds->at_progress("tl", 0, 0.5, [&] { ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  cluster.sim().at(60.0, [&] { ds->restore("tl", 0, PreemptPrimitive::Suspend); });
  cluster.run();
  const std::string gantt = recorder.render_gantt(2.0);
  EXPECT_NE(gantt.find("tl"), std::string::npos);
  EXPECT_NE(gantt.find('='), std::string::npos);   // running span
  EXPECT_NE(gantt.find('.'), std::string::npos);   // suspended span
  EXPECT_NE(gantt.find('|'), std::string::npos);   // completion mark
}

TEST(Timeline, MakespanWithoutJobsIsNegative) {
  Cluster cluster(paper_cluster());
  TimelineRecorder recorder(cluster.job_tracker());
  EXPECT_LT(recorder.makespan(), 0);
}

}  // namespace
}  // namespace osap
