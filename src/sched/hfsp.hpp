// HFSP-style size-based scheduler (the authors' own scheduler [7][24],
// mentioned in §VI as the first consumer of the suspend primitive).
//
// Jobs are served shortest-remaining-size-first: the job with the least
// remaining work owns the cluster; anything else runs only in leftover
// slots. When a smaller job arrives and the slots are busy, the running
// tasks of the largest job are preempted with the configured primitive,
// and resumed once the small job is out of the way — exactly the pattern
// that makes a work-preserving, low-latency primitive valuable.
#pragma once

#include <optional>

#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/resume_locality.hpp"
#include "hadoop/scheduler.hpp"

namespace osap {

class HfspScheduler : public Scheduler {
 public:
  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    EvictionPolicy eviction = EvictionPolicy::MostProgress;
    Duration resume_locality_threshold = seconds(30);
    /// At most this many preemptions per heartbeat (paced, so a burst of
    /// small jobs doesn't thrash suspend/resume cycles — §III-A's note
    /// that schedulers should avoid paying the cycle cost too often).
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  HfspScheduler() : options_(Options{}) {}
  explicit HfspScheduler(Options options) : options_(options) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Remaining virtual size (bytes of unprocessed input) of a job.
  [[nodiscard]] Bytes remaining_size(JobId id) const;
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 private:
  void attached() override;
  [[nodiscard]] JobId head_job() const;

  Options options_;
  std::optional<policy::PreemptionPolicy> policy_;
  std::optional<ResumeLocalityPolicy> resume_policy_;
  int preemptions_ = 0;
};

}  // namespace osap
