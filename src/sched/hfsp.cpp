#include "sched/hfsp.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "hfsp";
}

void HfspScheduler::attached() {
  policy_.emplace(*jt_, options_.primitive, options_.policy);
  resume_policy_.emplace(*jt_, options_.resume_locality_threshold);
}

Bytes HfspScheduler::remaining_size(JobId id) const {
  // The JobTracker keeps this total exact through its task-state and
  // task-progress choke points: per-task integer contributions are
  // swapped out and back in as they change, so the running sum equals
  // the old per-call rescan of every not-done task bit for bit.
  return jt_->job(id).remaining_bytes;
}

JobId HfspScheduler::head_job() const {
  // Front of the (remaining, id) order index — the old ascending-id
  // min-scan's pick, since strict-less kept the lowest id on size ties.
  const auto& by_remaining = jt_->jobs_by_remaining();
  return by_remaining.empty() ? JobId{} : by_remaining.begin()->second;
}

std::vector<TaskId> HfspScheduler::assign(const TrackerStatus& status) {
  std::vector<TaskId> out;
  const JobId head = head_job();
  if (!head.valid()) return out;

  // The head job gets its suspended tasks back first (request_resume only
  // queues; nothing transitions until resume_policy_->on_heartbeat below).
  for (TaskId tid : jt_->job(head).suspended) resume_policy_->request_resume(tid);
  // Parked victims of other jobs come back once the head has no queued
  // demand. Kill victims re-enter through the leftover-slot loop below;
  // a suspend victim has no other path back, and without this an idle
  // slot can sit next to a parked task until the victim's job finally
  // becomes head — which for the fattest job means the end of the run.
  if (jt_->job(head).unassigned.empty()) {
    for (JobId jid : jt_->jobs_with_suspended()) {
      const Job& job = jt_->job(jid);
      if (jid == head || job.state != JobState::Running) continue;
      for (TaskId tid : job.suspended) resume_policy_->request_resume(tid);
    }
  }
  int free_maps = status.free_map_slots;
  int free_reduces = status.free_reduce_slots;
  free_maps -= resume_policy_->on_heartbeat(status);

  // Launch the head job's pending tasks.
  int head_pending = 0;
  for (TaskId tid : jt_->job(head).unassigned) {
    const Task& task = jt_->task(tid);
    if (task.spec.preferred_node.valid() && task.spec.preferred_node != status.node) continue;
    int& budget = task.spec.type == TaskType::Map ? free_maps : free_reduces;
    if (budget > 0) {
      out.push_back(tid);
      --budget;
    } else {
      ++head_pending;
    }
  }

  // Still starved? Take slots away from the largest job. The budget
  // paces *effective* preemptions: an order the JobTracker refuses (the
  // victim sits on a lost or blacklisted tracker, or a policy demotion
  // hit a non-preemptable state) excludes that victim and retries the
  // next candidate without consuming the budget — otherwise one dead
  // order per heartbeat would starve the head job indefinitely.
  int budget = options_.max_preemptions_per_heartbeat;
  std::vector<TaskId> refused;
  while (head_pending > 0 && budget > 0) {
    JobId fattest;
    Bytes fattest_size = 0;
    std::vector<EvictionCandidate> pool;
    for (JobId jid : jt_->running_jobs()) {
      if (jid == head) continue;
      const Bytes size = remaining_size(jid);
      if (size <= fattest_size) continue;
      std::vector<EvictionCandidate> candidates = collect_candidates(*jt_, jid);
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&refused](const EvictionCandidate& c) {
                                        return std::find(refused.begin(), refused.end(),
                                                         c.task) != refused.end();
                                      }),
                       candidates.end());
      if (candidates.empty()) continue;
      fattest = jid;
      fattest_size = size;
      pool = std::move(candidates);
    }
    if (!fattest.valid()) break;
    const TaskId victim = pick_victim(options_.eviction, pool);
    if (!victim.valid()) break;
    OSAP_LOG(Info, kLog) << "preempting " << victim << " of job " << fattest << " for head job "
                         << head;
    if (policy_->preempt(victim).issued) {
      ++preemptions_;
      --head_pending;
      --budget;
    } else {
      refused.push_back(victim);
    }
  }

  // Leftover slots go to the remaining jobs, smallest first. Only jobs
  // with a non-empty unassigned pool can take one; skipping the rest
  // skips exactly the iterations the old running-jobs walk wasted.
  while (free_maps > 0 || free_reduces > 0) {
    bool assigned = false;
    for (JobId jid : jt_->schedulable_jobs()) {
      const Job& job = jt_->job(jid);
      for (TaskId tid : job.unassigned) {
        const Task& task = jt_->task(tid);
        if (std::find(out.begin(), out.end(), tid) != out.end()) continue;
        if (task.spec.preferred_node.valid() && task.spec.preferred_node != status.node) continue;
        int& budget = task.spec.type == TaskType::Map ? free_maps : free_reduces;
        if (budget <= 0) continue;
        out.push_back(tid);
        --budget;
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
