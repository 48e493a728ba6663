// HFSP-style size-based scheduler (the authors' own scheduler [7][24],
// mentioned in §VI as the first consumer of the suspend primitive).
//
// Jobs are served shortest-remaining-size-first: the job with the least
// remaining work owns the cluster; anything else runs only in leftover
// slots. When a smaller job arrives and the slots are busy, the running
// tasks of the largest job are preempted with the configured primitive,
// and resumed once the small job is out of the way — exactly the pattern
// that makes a work-preserving, low-latency primitive valuable. Victims
// are the tasks closest to completion (Natjam's intuition, §V-A), which
// keeps the victim job's tasks bunched.
#pragma once

#include "sched/preempting.hpp"

namespace osap {

class HfspScheduler : public PreemptingScheduler {
 public:
  static constexpr EvictionPolicy kEviction = EvictionPolicy::MostProgress;

  struct Options {
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    /// At most this many preemptions per heartbeat (paced, so a burst of
    /// small jobs doesn't thrash suspend/resume cycles — §III-A's note
    /// that schedulers should avoid paying the cycle cost too often).
    int max_preemptions_per_heartbeat = 1;
    /// Per-queue rules and swap demotion over `primitive` (docs/POLICY.md).
    policy::PolicyOptions policy;
  };

  HfspScheduler() : HfspScheduler(Options{}) {}
  explicit HfspScheduler(Options options)
      : PreemptingScheduler(options.primitive, options.policy),
        max_preemptions_per_heartbeat_(options.max_preemptions_per_heartbeat) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

  /// Remaining virtual size (bytes of unprocessed input) of a job.
  [[nodiscard]] Bytes remaining_size(JobId id) const;

 private:
  [[nodiscard]] JobId head_job() const;

  int max_preemptions_per_heartbeat_;
};

}  // namespace osap
