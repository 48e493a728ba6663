// Simplified Hadoop FAIR scheduler with preemption (§II).
//
// Each job is its own pool with an equal share of the cluster's map
// slots. When a job has been starved below its fair share longer than the
// preemption timeout, tasks of over-share jobs are preempted with the
// configured primitive (the paper's motivation: FAIR "can use preemption
// to warrant fairness; if a job starves due to long-running tasks of
// another job, these latter may be preempted"). Victims are chosen by a
// pluggable eviction policy, and suspended victims are resumed through
// the resume-locality policy once capacity frees up.
#pragma once

#include <optional>
#include <unordered_map>

#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/resume_locality.hpp"
#include "sched/fifo.hpp"

namespace osap {

class FairScheduler : public Scheduler {
 public:
  struct Options {
    /// Total map slots in the cluster (shares are computed against this).
    int cluster_map_slots = 2;
    /// How long a job may sit below its fair share before the scheduler
    /// preempts someone.
    Duration preemption_timeout = seconds(15);
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::SmallestMemory;
    Duration resume_locality_threshold = seconds(30);
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  explicit FairScheduler(Options options) : options_(options) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;
  void job_added(JobId id) override;
  void job_completed(JobId id) override;

  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 private:
  void attached() override;

  [[nodiscard]] int running_or_pending_command(JobId id) const;
  [[nodiscard]] int demand(JobId id) const;
  [[nodiscard]] double fair_share() const;
  void check_starvation();
  void resume_where_possible(const TrackerStatus& status, int& free_maps);

  Options options_;
  std::optional<policy::PreemptionPolicy> policy_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  /// When each job last had at least its fair share (or had no demand).
  std::unordered_map<JobId, SimTime> satisfied_at_;
  int preemptions_ = 0;
};

}  // namespace osap
