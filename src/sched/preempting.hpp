// The preemption core shared by the fair, capacity, hfsp and deadline
// schedulers. Each decides whom to evict and when (§III, §V-A); this base
// owns the rest: the policy engine that applies the primitive, the
// resume-locality policy that brings suspended victims back, the slot fit
// test, the refused-victim exclusion and the count of orders that
// displaced a task. The dummy scheduler and the gang rotator stay on
// `Preemptor` (docs/POLICY.md).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "hadoop/scheduler.hpp"
#include "policy/policy.hpp"
#include "preempt/eviction.hpp"
#include "preempt/resume_locality.hpp"

namespace osap {

class PreemptingScheduler : public Scheduler {
 public:
  /// Orders that displaced a task. A Wait order displaces nothing: it
  /// still counts as accepted for a preemption budget or timer.
  [[nodiscard]] int preemptions_issued() const noexcept { return preemptions_; }

 protected:
  /// `primitive` is the engine's default for queues `policy` has no rule for.
  PreemptingScheduler(PreemptPrimitive primitive, policy::PolicyOptions policy)
      : primitive_(primitive), policy_(std::move(policy)) {}

  /// Builds the policy engine and the resume-locality policy.
  void attached() override;

  enum class Fit { Taken, Full, Elsewhere };

  /// The reporting tracker's free slots during one assign() pass.
  struct Slots {
    NodeId node;
    int maps = 0;
    int reduces = 0;

    [[nodiscard]] bool any() const noexcept { return maps > 0 || reduces > 0; }

    /// The slot fit test. Elsewhere: the task's locality pin names another
    /// node; Full: no slot of its type is free; Taken: it fits, and the
    /// slot is now spoken for.
    Fit take(const Task& task) {
      if (task.spec.preferred_node.valid() && task.spec.preferred_node != node) {
        return Fit::Elsewhere;
      }
      int& free = task.spec.type == TaskType::Map ? maps : reduces;
      if (free <= 0) return Fit::Full;
      --free;
      return Fit::Taken;
    }
  };

  /// Queue every suspended task of `job` for resume; nothing transitions
  /// before drive_resumes().
  void request_resumes(const Job& job);
  /// Drive the queued resumes on the reporting tracker and return the
  /// slots left for launches (a local resume takes a map slot).
  Slots drive_resumes(const TrackerStatus& status);

  /// `job`'s running tasks as eviction candidates, less the victims
  /// refused earlier in the current evict_paced() round.
  [[nodiscard]] std::vector<EvictionCandidate> candidates(JobId job) const;
  /// Evict `victim` through the policy engine; true when the JobTracker
  /// accepted the order, Wait included.
  bool evict(TaskId victim);

  /// Evict up to `wanted` victims named by `next_victim()` (an invalid id
  /// ends the round) with at most `budget` accepted orders. A refused
  /// order (the victim sits on a lost or blacklisted tracker) spends
  /// nothing: its victim leaves candidates() and the round tries the
  /// next, or one dead order per heartbeat would starve the job served.
  template <typename NextVictim>
  void evict_paced(int wanted, int budget, NextVictim next_victim) {
    while (wanted > 0 && budget > 0) {
      const TaskId victim = next_victim();
      if (!victim.valid()) break;
      if (evict(victim)) {
        --wanted;
        --budget;
      } else {
        refused_.push_back(victim);
      }
    }
    refused_.clear();
  }

 private:
  /// How long a resume waits for a slot on the victim's own node before
  /// it falls back to kill + reschedule elsewhere (§V-A).
  static constexpr Duration kResumeLocalityThreshold = seconds(30);

  PreemptPrimitive primitive_;
  policy::PolicyOptions policy_;
  std::optional<policy::PreemptionPolicy> engine_;
  std::optional<ResumeLocalityPolicy> resume_;
  /// Victims refused in the current evict_paced() round; empty outside one.
  std::vector<TaskId> refused_;
  int preemptions_ = 0;
};

}  // namespace osap
