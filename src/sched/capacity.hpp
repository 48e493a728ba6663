// Simplified Hadoop Capacity scheduler with preemption (§II).
//
// The cluster's map slots are divided among named queues, each with a
// guaranteed capacity (a fraction of the slots). Queues may borrow idle
// capacity elastically; when a queue with demand sits below its guarantee
// longer than the preemption timeout, tasks of over-capacity queues are
// preempted with the configured primitive to reclaim the borrowed slots —
// the second of the two stock Hadoop schedulers the paper names as
// preemption consumers. Victims are the donor queue's youngest attempts,
// as Hadoop's FAIR scheduler picks them.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sched/preempting.hpp"

namespace osap {

class CapacityScheduler : public PreemptingScheduler {
 public:
  static constexpr EvictionPolicy kEviction = EvictionPolicy::LastLaunched;

  struct QueueConfig {
    std::string name;
    /// Guaranteed fraction of the cluster's map slots, in (0,1].
    double capacity = 0.5;
    /// Per-queue preemption mode (docs/POLICY.md): how tasks *of this
    /// queue* are evicted when another queue reclaims its guarantee —
    /// SLURM keys PreemptMode on the preempted partition the same way.
    /// Any spelling in kPrimitiveSpellings; "" inherits the
    /// scheduler-wide `primitive`.
    std::string preempt;
  };
  struct Options {
    std::vector<QueueConfig> queues;
    Duration preemption_timeout = seconds(15);
    PreemptPrimitive primitive = PreemptPrimitive::Suspend;
    /// Per-queue rules and swap demotion over `primitive`
    /// (docs/POLICY.md); queue `preempt=` attributes are appended.
    policy::PolicyOptions policy;
  };

  explicit CapacityScheduler(Options options);

  std::vector<TaskId> assign(const TrackerStatus& status) override;
  void job_added(JobId id) override;

  /// Guaranteed whole slots of a queue (floor of fraction * the cluster's
  /// map slots, >= 1).
  [[nodiscard]] int guaranteed_slots(const std::string& queue) const;
  /// Live tasks currently charged to a queue.
  [[nodiscard]] int used_slots(const std::string& queue) const;

 private:
  void attached() override;
  [[nodiscard]] const std::string& queue_of(JobId id) const;
  [[nodiscard]] bool queue_has_demand(const std::string& queue) const;
  void check_guarantees();

  Options options_;
  std::unordered_map<std::string, SimTime> satisfied_at_;
};

}  // namespace osap
