#include "sched/fair.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "fair";
}

void FairScheduler::attached() {
  policy_.emplace(*jt_, options_.primitive, options_.policy);
  resume_policy_.emplace(*jt_, options_.resume_locality_threshold);
}

void FairScheduler::job_added(JobId id) { satisfied_at_[id] = jt_->now(); }

void FairScheduler::job_completed(JobId id) { satisfied_at_.erase(id); }

int FairScheduler::running_or_pending_command(JobId id) const {
  // Running | MustSuspend | MustResume = live minus the parked Suspended.
  const Job& job = jt_->job(id);
  return static_cast<int>(job.live.size() - job.suspended.size());
}

int FairScheduler::demand(JobId id) const {
  return static_cast<int>(jt_->job(id).not_done.size());
}

double FairScheduler::fair_share() const {
  int active = 0;
  for (JobId id : jt_->running_jobs()) {
    if (demand(id) > 0) ++active;
  }
  if (active == 0) return static_cast<double>(options_.cluster_map_slots);
  return static_cast<double>(options_.cluster_map_slots) / active;
}

void FairScheduler::resume_where_possible(const TrackerStatus& status, int& free_maps) {
  // A freed slot first serves starved jobs' unassigned tasks; suspended
  // victims come back only when nobody is waiting below their share —
  // otherwise the scheduler would undo its own preemption on the next
  // heartbeat.
  const double share = fair_share();
  bool someone_waiting = false;
  for (JobId jid : jt_->running_jobs()) {
    if (running_or_pending_command(jid) >= static_cast<int>(share + 1e-9) + 1) continue;
    if (!jt_->job(jid).unassigned.empty()) {
      someone_waiting = true;
      break;
    }
  }
  if (!someone_waiting) {
    for (JobId jid : jt_->jobs_with_suspended()) {
      const Job& job = jt_->job(jid);
      if (job.state != JobState::Running) continue;
      // request_resume only queues; transitions happen in on_heartbeat.
      for (TaskId tid : job.suspended) resume_policy_->request_resume(tid);
    }
  }
  free_maps -= resume_policy_->on_heartbeat(status);
}

void FairScheduler::check_starvation() {
  const double share = fair_share();
  const SimTime now = jt_->now();
  for (JobId jid : jt_->running_jobs()) {
    const int want = std::min(demand(jid), static_cast<int>(share + 1e-9) > 0
                                               ? static_cast<int>(share + 1e-9)
                                               : 1);
    const int have = running_or_pending_command(jid);
    if (have >= want || demand(jid) == 0) {
      satisfied_at_[jid] = now;
      continue;
    }
    if (now - satisfied_at_[jid] < options_.preemption_timeout) continue;

    // Starved: preempt a victim from the job furthest above its share.
    JobId fattest;
    int fattest_excess = 0;
    for (JobId other : jt_->running_jobs()) {
      if (other == jid) continue;
      const int excess = running_or_pending_command(other) -
                         static_cast<int>(share + 1e-9);
      if (excess > fattest_excess) {
        fattest_excess = excess;
        fattest = other;
      }
    }
    if (!fattest.valid()) continue;
    const TaskId victim = pick_victim(options_.eviction, collect_candidates(*jt_, fattest));
    if (!victim.valid()) continue;
    OSAP_LOG(Info, kLog) << "job " << jid << " starved; preempting " << victim << " of job "
                         << fattest << " via " << to_string(options_.primitive);
    if (policy_->preempt(victim).issued) {
      ++preemptions_;
      satisfied_at_[jid] = now;  // give the command time to take effect
    }
  }
}

std::vector<TaskId> FairScheduler::assign(const TrackerStatus& status) {
  check_starvation();

  int free_maps = status.free_map_slots;
  int free_reduces = status.free_reduce_slots;
  resume_where_possible(status, free_maps);

  std::vector<TaskId> out;
  if (free_maps <= 0 && free_reduces <= 0) return out;

  // Hand slots to jobs in ascending (running / share) order. Sorting the
  // running set then walking it is the same order the old sort-everything-
  // then-filter pass produced: the comparator reads only per-element state,
  // and stable_sort keeps the ascending-id relative order of ties.
  std::vector<JobId> queue(jt_->running_jobs().begin(), jt_->running_jobs().end());
  std::stable_sort(queue.begin(), queue.end(), [this](JobId a, JobId b) {
    return running_or_pending_command(a) < running_or_pending_command(b);
  });
  for (JobId jid : queue) {
    const Job& job = jt_->job(jid);
    for (TaskId tid : job.unassigned) {
      const Task& task = jt_->task(tid);
      if (task.spec.preferred_node.valid() && task.spec.preferred_node != status.node) continue;
      int& budget = task.spec.type == TaskType::Map ? free_maps : free_reduces;
      if (budget <= 0) continue;
      out.push_back(tid);
      --budget;
    }
  }
  return out;
}

}  // namespace osap
