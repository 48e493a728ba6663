// Simplified Hadoop FAIR scheduler with preemption (§II).
//
// Each job is its own pool with an equal share of the cluster's map
// slots. When a job has been starved below its fair share longer than the
// preemption timeout, tasks of over-share jobs are preempted with the
// configured primitive (the paper's motivation: FAIR "can use preemption
// to warrant fairness; if a job starves due to long-running tasks of
// another job, these latter may be preempted"). Victims are the
// smallest-memory tasks (the paper's own suggestion, §V-A), and suspended
// victims are resumed through the resume-locality policy once capacity
// frees up.
#pragma once

#include <unordered_map>

#include "sched/preempting.hpp"

namespace osap {

class FairScheduler : public PreemptingScheduler {
 public:
  static constexpr EvictionPolicy kEviction = EvictionPolicy::SmallestMemory;

  struct Options {
    /// How long a job may sit below its fair share before the scheduler
    /// preempts someone.
    Duration preemption_timeout = seconds(15);
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  explicit FairScheduler(Options options)
      : PreemptingScheduler(options.primitive, options.policy), options_(options) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;
  void job_added(JobId id) override;
  void job_completed(JobId id) override;

 private:
  [[nodiscard]] int running_or_pending_command(JobId id) const;
  [[nodiscard]] int demand(JobId id) const;
  /// Shares are computed against every map slot of the cluster.
  [[nodiscard]] double fair_share() const;
  void check_starvation();
  void request_victim_resumes();

  Options options_;
  /// When each job last had at least its fair share (or had no demand).
  std::unordered_map<JobId, SimTime> satisfied_at_;
};

}  // namespace osap
