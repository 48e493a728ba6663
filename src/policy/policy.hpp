// The per-queue preemption-policy engine (docs/POLICY.md).
//
// Schedulers decide *whom* to evict and *when*; this engine decides
// *how*: it maps (victim's queue, victim state, node memory pressure) to
// a PreemptPrimitive and executes it through the Preemptor it owns.
// Rules key on the victim's queue — SLURM keys PreemptMode on the
// preemptee's QOS/partition the same way — with a cluster-wide default
// for queues without an explicit rule.
//
// Memory-pressure demotion: a suspend-family primitive aimed at a node
// whose swap-used fraction is already past the watermark demotes to
// Kill. Suspended tasks keep their memory committed (SLURM's documented
// gang-scheduling hazard, which this simulator's VMM actually models:
// §III-A bounds suspended state by RAM + swap), so parking yet another
// JVM on a swapping node buys latency, not throughput.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "preempt/preemptor.hpp"

namespace osap::trace {
class Counter;
}  // namespace osap::trace

namespace osap::policy {

/// Swap-used fraction of a node in [0,1]; wired to Vmm::swap_pressure()
/// by whoever owns the Cluster (src/core, tests). Null = no demotion.
using MemoryProbe = std::function<double(NodeId)>;

struct PolicyOptions {
  /// Per-queue overrides of the engine's default, keyed on the victim's
  /// job queue.
  std::vector<std::pair<std::string, PreemptPrimitive>> per_queue;
  /// Demote Suspend/NatjamCheckpoint to Kill once the victim node's
  /// swap-used fraction reaches this. 1.0 effectively disables demotion
  /// (pressure is capped below 1 while the OOM killer holds).
  double swap_watermark = 1.0;
  MemoryProbe probe;
};

/// What the engine did for one victim.
struct Outcome {
  PreemptPrimitive primitive = PreemptPrimitive::Wait;  ///< after any demotion
  bool issued = false;  ///< the JobTracker accepted the resulting order
};

class PreemptionPolicy {
 public:
  /// `default_primitive` applies to every queue without a per_queue rule.
  PreemptionPolicy(JobTracker& jt, PreemptPrimitive default_primitive,
                   PolicyOptions options = {});

  /// Rule lookup + memory-pressure demotion for this victim; read-only.
  [[nodiscard]] PreemptPrimitive decide(TaskId victim) const;

  /// Decide and execute. Wait issues nothing and counts as accepted (the
  /// high-priority work just waits).
  Outcome preempt(TaskId victim);

 private:
  [[nodiscard]] PreemptPrimitive rule_for(const std::string& queue) const;

  JobTracker* jt_;
  Preemptor preemptor_;
  PreemptPrimitive default_primitive_;
  PolicyOptions options_;
  trace::Counter* ctr_decisions_;
  trace::Counter* ctr_waits_;
  trace::Counter* ctr_kills_;
  trace::Counter* ctr_suspends_;
  trace::Counter* ctr_checkpoints_;
  trace::Counter* ctr_requeues_;
  trace::Counter* ctr_demotions_;
  trace::Counter* ctr_refused_;
};

}  // namespace osap::policy
