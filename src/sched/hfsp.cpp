#include "sched/hfsp.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "hfsp";
}

Bytes HfspScheduler::remaining_size(JobId id) const {
  // The JobTracker keeps this total exact through its task-state and
  // task-progress choke points: per-task integer contributions are
  // swapped out and back in as they change, so the running sum equals
  // the old per-call rescan of every not-done task bit for bit.
  return jt_->job(id).remaining_bytes;
}

JobId HfspScheduler::head_job() const {
  // The least (remaining, id) job — the old ascending-id min-scan's pick,
  // since strict-less kept the lowest id on size ties.
  return jt_->smallest_job();
}

std::vector<TaskId> HfspScheduler::assign(const TrackerStatus& status) {
  std::vector<TaskId> out;
  const JobId head = head_job();
  if (!head.valid()) return out;

  // The head job gets its suspended tasks back first.
  request_resumes(jt_->job(head));
  // Parked victims of other jobs come back once the head has no queued
  // demand. Kill victims re-enter through the leftover-slot loop below;
  // a suspend victim has no other path back, and without this an idle
  // slot can sit next to a parked task until the victim's job finally
  // becomes head — which for the fattest job means the end of the run.
  if (jt_->job(head).unassigned.empty()) {
    for (JobId jid : jt_->jobs_with_suspended()) {
      const Job& job = jt_->job(jid);
      if (jid != head && job.state == JobState::Running) request_resumes(job);
    }
  }
  Slots slots = drive_resumes(status);

  // Launch the head job's pending tasks.
  int head_pending = 0;
  for (TaskId tid : jt_->job(head).unassigned) {
    const Fit fit = slots.take(jt_->task(tid));
    if (fit == Fit::Taken) {
      out.push_back(tid);
    } else if (fit == Fit::Full) {
      ++head_pending;
    }
  }

  // Still starved? Take slots away from the largest job.
  evict_paced(head_pending, max_preemptions_per_heartbeat_, [&] {
    JobId fattest;
    Bytes fattest_size = 0;
    std::vector<EvictionCandidate> pool;
    for (JobId jid : jt_->running_jobs()) {
      if (jid == head) continue;
      const Bytes size = remaining_size(jid);
      if (size <= fattest_size) continue;
      std::vector<EvictionCandidate> more = candidates(jid);
      if (more.empty()) continue;
      fattest = jid;
      fattest_size = size;
      pool = std::move(more);
    }
    const TaskId victim = pick_victim(kEviction, pool);
    if (victim.valid()) {
      OSAP_LOG(Info, kLog) << "preempting " << victim << " of job " << fattest
                           << " for head job " << head;
    }
    return victim;
  });

  // Leftover slots go to the remaining jobs, smallest first. Only jobs
  // with a non-empty unassigned pool can take one; skipping the rest
  // skips exactly the iterations the old running-jobs walk wasted.
  while (slots.any()) {
    bool assigned = false;
    for (JobId jid : jt_->schedulable_jobs()) {
      for (TaskId tid : jt_->job(jid).unassigned) {
        if (std::find(out.begin(), out.end(), tid) != out.end()) continue;
        if (slots.take(jt_->task(tid)) != Fit::Taken) continue;
        out.push_back(tid);
        assigned = true;
        break;
      }
      if (assigned) break;
    }
    if (!assigned) break;
  }
  return out;
}

}  // namespace osap
