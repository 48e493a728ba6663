// Preemptor: executes a preemption primitive through the JobTracker API.
//
// Schedulers decide *whom* to evict (see eviction.hpp) and *when*; the
// Preemptor performs the chosen primitive and its matching restore step
// once the high-priority work is done.
#pragma once

#include <memory>

#include "common/ids.hpp"
#include "hadoop/job_tracker.hpp"
#include "preempt/primitive.hpp"
#include "preempt/protocol_audit.hpp"

namespace osap {

class Preemptor {
 public:
  /// Also attaches a ProtocolAuditor to the JobTracker, so any experiment
  /// driving preemption gets the suspend/resume ordering checked for free.
  explicit Preemptor(JobTracker& jt)
      : jt_(&jt), protocol_audit_(std::make_shared<ProtocolAuditor>(jt)) {}

  /// Apply the primitive to the victim task. Returns false if the task
  /// was not in a preemptable state (e.g. it already finished).
  bool preempt(TaskId victim, PreemptPrimitive primitive);

  /// Undo the preemption when resources free up again: resume a suspended
  /// or checkpointed victim. Kill and Requeue need no restore (the task
  /// is already back in the pool) and wait never displaced anything.
  bool restore(TaskId victim, PreemptPrimitive primitive);

 private:
  JobTracker* jt_;
  /// Shared so Preemptor copies observe through one state machine.
  std::shared_ptr<ProtocolAuditor> protocol_audit_;
};

}  // namespace osap
