// Resume locality (§V-A).
//
// A suspended process can only be resumed on the machine it was suspended
// on. If that machine stays busy while others idle, waiting forever wastes
// cluster capacity — so, mirroring delay scheduling for data locality, a
// resume request waits up to a threshold for a home-node slot and then
// falls back to kill + reschedule elsewhere ("the suspend is effectively
// analogous to a delayed kill").
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

class ResumeLocalityPolicy {
 public:
  ResumeLocalityPolicy(JobTracker& jt, Duration threshold)
      : jt_(&jt), threshold_(threshold) {}

  /// Ask for `task` (currently SUSPENDED) to be resumed when capacity
  /// allows.
  void request_resume(TaskId task);

  /// Drive pending requests from the scheduler's heartbeat handler.
  /// Returns the number of map slots consumed on this tracker by local
  /// resumes (so the caller can shrink its assignment budget).
  int on_heartbeat(const TrackerStatus& status);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

 private:
  struct Pending {
    TaskId task;
    SimTime since;
  };
  JobTracker* jt_;
  Duration threshold_;
  std::vector<Pending> pending_;
};

}  // namespace osap
