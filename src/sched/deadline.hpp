// Deadline (EDF) scheduler with preemption (§II).
//
// "In deadline scheduling [5], preemption can be used to make sure that
// jobs that are close to the deadline are run as soon as possible."
//
// Jobs carry an absolute deadline; slots go to the job with the earliest
// deadline among those whose remaining work still fits before it (plain
// EDF otherwise). When an urgent job cannot get slots and its laxity
// (deadline − now − estimated remaining work) falls below kLaxityMargin,
// tasks of the latest-deadline job are preempted with the configured
// primitive, freshest first (least work at risk, §V-A).
#pragma once

#include "sched/preempting.hpp"

namespace osap {

class DeadlineScheduler : public PreemptingScheduler {
 public:
  static constexpr EvictionPolicy kEviction = EvictionPolicy::LeastProgress;
  /// Preempt for a job once its slack drops below this margin.
  static constexpr Duration kLaxityMargin = seconds(20);
  /// Below this (negative) slack the deadline is written off and the
  /// job stops preempting others. Without the cutoff a cluster of
  /// hopeless deadlines thrashes forever under checkpoint preemption:
  /// every job evicts every other each heartbeat and the relaunch
  /// fast-forward eats all the progress a slice ever makes.
  static constexpr Duration kGiveUpLaxity = seconds(-60);
  /// Rough per-byte service-time estimate used for laxity: the synthetic
  /// mapper's parse rate.
  static constexpr double kSecondsPerByte = 1.0 / (6.7 * static_cast<double>(MiB));

  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  DeadlineScheduler() : DeadlineScheduler(Options{}) {}
  explicit DeadlineScheduler(Options options)
      : PreemptingScheduler(options.primitive, options.policy),
        max_preemptions_per_heartbeat_(options.max_preemptions_per_heartbeat) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Estimated seconds of work left in the job.
  [[nodiscard]] Duration remaining_work(JobId id) const;
  /// deadline − now − remaining work; negative means a likely miss.
  [[nodiscard]] Duration laxity(JobId id) const;

 private:
  [[nodiscard]] std::vector<JobId> edf_order() const;

  int max_preemptions_per_heartbeat_;
};

}  // namespace osap
