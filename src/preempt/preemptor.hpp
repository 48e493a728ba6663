// Preemptor: executes a preemption primitive through the JobTracker API.
//
// Schedulers decide *whom* to evict (see eviction.hpp) and *when*; the
// Preemptor performs the chosen primitive and its matching restore step
// once the high-priority work is done.
#pragma once

#include "common/ids.hpp"
#include "hadoop/job_tracker.hpp"
#include "preempt/primitive.hpp"

namespace osap {

class Preemptor {
 public:
  /// The JobTracker's own ProtocolAuditor checks the suspend/resume
  /// ordering of every order issued here.
  explicit Preemptor(JobTracker& jt) : jt_(&jt) {}

  /// Apply the primitive to the victim task. Returns false if the task
  /// was not in a preemptable state (e.g. it already finished).
  bool preempt(TaskId victim, PreemptPrimitive primitive);

  /// Undo the preemption when resources free up again: resume a suspended
  /// or checkpointed victim. Kill and Requeue need no restore (the task
  /// is already back in the pool) and wait never displaced anything.
  bool restore(TaskId victim, PreemptPrimitive primitive);

 private:
  JobTracker* jt_;
};

}  // namespace osap
