// Jobs: collections of tasks with priorities and completion tracking.
#pragma once

#include <string>
#include <vector>

#include "common/flat_set.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "hadoop/task.hpp"

namespace osap {

enum class JobState {
  Running,
  Succeeded,
  /// Terminal failure: a task exhausted its attempt budget, or the
  /// cluster ran out of usable trackers. Schedulers skip non-Running
  /// jobs, so a Failed job schedules nothing further.
  Failed,
};

struct JobSpec {
  std::string name = "job";
  /// Higher runs first for priority-aware schedulers.
  int priority = 0;
  /// Submission queue, used by the Capacity scheduler.
  std::string queue = "default";
  /// Completion deadline (absolute simulation time; <0 = none), used by
  /// the deadline scheduler.
  SimTime deadline = -1;
  std::vector<TaskSpec> tasks;
};

struct Job {
  JobId id;
  JobSpec spec;
  JobState state = JobState::Running;
  std::vector<TaskId> tasks;
  int tasks_completed = 0;
  SimTime submitted_at = -1;
  SimTime completed_at = -1;

  // --- incremental task indexes (docs/PERF.md) --------------------------
  // Maintained by the JobTracker through its single task-state choke
  // point; schedulers and the straggler detector read them instead of
  // scanning `tasks`. Task ids are dense and assigned in creation order,
  // so ascending set iteration visits exactly the order a filtered
  // walk of `tasks` would — preserving every tie-break and the order of
  // floating-point accumulations.
  /// Tasks in UNASSIGNED (the schedulable pool).
  FlatIdSet<TaskId> unassigned;
  /// Tasks in a live state (Running / MustSuspend / Suspended / MustResume).
  FlatIdSet<TaskId> live;
  /// Tasks in SUSPENDED specifically (resume-scan index).
  FlatIdSet<TaskId> suspended;
  /// Tasks not yet Succeeded or Failed (demand / remaining-work index).
  FlatIdSet<TaskId> not_done;
  /// Live backup attempts currently racing (the speculative cap's count).
  int speculating = 0;
  /// Map tasks not in SUCCEEDED — the shuffle barrier test, O(1).
  int maps_not_succeeded = 0;
  /// Exact running total of per-task remaining input bytes (the HFSP job
  /// size): sum over not-done tasks of floor((1 - progress) * input_bytes),
  /// progress counting only for live attempts. Each task's integer
  /// contribution is swapped out and back in whenever its state or
  /// progress changes, so the total equals the full rescan bit for bit
  /// (integer addition commutes).
  Bytes remaining_bytes = 0;
  /// Key under which the JobTracker last filed this job in its
  /// (remaining, id) order index; 0 = not filed (done, failed, or empty).
  Bytes indexed_remaining = 0;
  /// Earliest sim time at which the straggler scan could next launch a
  /// copy from this job, given the attempt set it saw last scan; 0 =
  /// stale, rescan on the next heartbeat. Every ETA input (task state,
  /// progress, spec) is written through a JobTracker choke point that
  /// resets this, so the cached bound never outlives its inputs. Written
  /// only through JobTracker::set_spec_next_check, which files the job on
  /// the speculation agenda by this bound.
  SimTime spec_next_check = 0;

  /// Sojourn time: submission to completion (§IV-B).
  [[nodiscard]] Duration sojourn() const noexcept {
    return (completed_at >= 0 && submitted_at >= 0) ? completed_at - submitted_at : -1;
  }
};

}  // namespace osap
