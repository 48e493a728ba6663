#include "sched/preempting.hpp"

#include <algorithm>

namespace osap {

void PreemptingScheduler::attached() {
  engine_.emplace(*jt_, primitive_, policy_);
  resume_.emplace(*jt_, kResumeLocalityThreshold);
}

void PreemptingScheduler::request_resumes(const Job& job) {
  for (TaskId tid : job.suspended) resume_->request_resume(tid);
}

PreemptingScheduler::Slots PreemptingScheduler::drive_resumes(const TrackerStatus& status) {
  Slots slots{status.node, status.free_map_slots, status.free_reduce_slots};
  slots.maps -= resume_->on_heartbeat(status);
  return slots;
}

std::vector<EvictionCandidate> PreemptingScheduler::candidates(JobId job) const {
  std::vector<EvictionCandidate> out = collect_candidates(*jt_, job);
  std::erase_if(out, [this](const EvictionCandidate& c) {
    return std::find(refused_.begin(), refused_.end(), c.task) != refused_.end();
  });
  return out;
}

bool PreemptingScheduler::evict(TaskId victim) {
  const policy::Outcome out = engine_->preempt(victim);
  if (out.issued && out.primitive != PreemptPrimitive::Wait) ++preemptions_;
  return out.issued;
}

}  // namespace osap
