// FIFO scheduler (Hadoop 1's default JobQueueTaskScheduler).
//
// Jobs are served by priority (descending), then submission order. Within
// a job, map tasks prefer data-local nodes; non-local launches are delayed
// by a configurable locality delay (delay scheduling [20]).
#pragma once

#include <vector>

#include "common/time.hpp"
#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"

namespace osap {

class FifoScheduler : public Scheduler {
 public:
  /// Default locality delay of two heartbeats; pass 0 to disable delay
  /// scheduling and launch remote immediately.
  explicit FifoScheduler(Duration locality_delay = seconds(6))
      : locality_delay_(locality_delay) {}

  std::vector<TaskId> assign(const TrackerStatus& status) override;

 protected:
  /// Job ids ordered by (priority desc, submission order), in a buffer
  /// the scheduler reuses: valid until the next call.
  const std::vector<JobId>& job_queue();

  /// Whether the task may launch on this node now (locality rules).
  [[nodiscard]] bool eligible(const Task& task, const TrackerStatus& status) const;

 private:
  Duration locality_delay_;
  /// job_queue()'s storage, reused across heartbeats.
  std::vector<JobId> queue_;
};

}  // namespace osap
