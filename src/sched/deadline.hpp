// Deadline (EDF) scheduler with preemption (§II).
//
// "In deadline scheduling [5], preemption can be used to make sure that
// jobs that are close to the deadline are run as soon as possible."
//
// Jobs carry an absolute deadline; slots go to the job with the earliest
// deadline among those whose remaining work still fits before it (plain
// EDF otherwise). When an urgent job cannot get slots and its laxity
// (deadline − now − estimated remaining work) falls below a threshold,
// tasks of the latest-deadline job are preempted with the configured
// primitive.
#pragma once

#include <optional>

#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/resume_locality.hpp"
#include "hadoop/scheduler.hpp"

namespace osap {

class DeadlineScheduler : public Scheduler {
 public:
  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::LeastProgress;
    Duration resume_locality_threshold = seconds(30);
    /// Preempt for a job once its slack drops below this margin.
    Duration laxity_margin = seconds(20);
    /// Below this (negative) slack the deadline is written off and the
    /// job stops preempting others. Without the cutoff a cluster of
    /// hopeless deadlines thrashes forever under checkpoint preemption:
    /// every job evicts every other each heartbeat and the relaunch
    /// fast-forward eats all the progress a slice ever makes.
    Duration give_up_laxity = seconds(-60);
    /// Rough per-byte service-time estimate used for laxity (defaults to
    /// the synthetic mapper's parse rate).
    double seconds_per_byte = 1.0 / (6.7 * static_cast<double>(MiB));
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  DeadlineScheduler() : options_(Options{}) {}
  explicit DeadlineScheduler(Options options) : options_(options) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Estimated seconds of work left in the job.
  [[nodiscard]] Duration remaining_work(JobId id) const;
  /// deadline − now − remaining work; negative means a likely miss.
  [[nodiscard]] Duration laxity(JobId id) const;
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 private:
  void attached() override;
  [[nodiscard]] std::vector<JobId> edf_order() const;

  Options options_;
  std::optional<policy::PreemptionPolicy> policy_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  int preemptions_ = 0;
};

}  // namespace osap
