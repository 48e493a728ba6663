#include "sched/fair.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "fair";
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
  const auto slots = static_cast<double>(jt_->cluster_map_slots());
  int active = 0;
  for (JobId id : jt_->running_jobs()) {
    if (demand(id) > 0) ++active;
  }
  return active == 0 ? slots : slots / active;
}

void FairScheduler::request_victim_resumes() {
  // A freed slot first serves starved jobs' unassigned tasks; suspended
  // victims come back only when nobody is waiting below their share —
  // otherwise the scheduler would undo its own preemption on the next
  // heartbeat.
  const double share = fair_share();
  for (JobId jid : jt_->running_jobs()) {
    if (running_or_pending_command(jid) >= static_cast<int>(share + 1e-9) + 1) continue;
    if (!jt_->job(jid).unassigned.empty()) return;
  }
  for (JobId jid : jt_->jobs_with_suspended()) {
    const Job& job = jt_->job(jid);
    if (job.state == JobState::Running) request_resumes(job);
  }
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
    const TaskId victim = pick_victim(kEviction, candidates(fattest));
    if (!victim.valid()) continue;
    OSAP_LOG(Info, kLog) << "job " << jid << " starved; preempting " << victim << " of job "
                         << fattest << " via " << to_string(options_.primitive);
    // Give the command time to take effect.
    if (evict(victim)) satisfied_at_[jid] = now;
  }
}

std::vector<TaskId> FairScheduler::assign(const TrackerStatus& status) {
  check_starvation();
  request_victim_resumes();
  Slots slots = drive_resumes(status);

  std::vector<TaskId> out;
  if (!slots.any()) return out;

  // Hand slots to jobs in ascending (running / share) order. Sorting the
  // running set then walking it is the same order the old sort-everything-
  // then-filter pass produced: the comparator reads only per-element state,
  // and stable_sort keeps the ascending-id relative order of ties.
  std::vector<JobId> queue(jt_->running_jobs().begin(), jt_->running_jobs().end());
  std::stable_sort(queue.begin(), queue.end(), [this](JobId a, JobId b) {
    return running_or_pending_command(a) < running_or_pending_command(b);
  });
  for (JobId jid : queue) {
    for (TaskId tid : jt_->job(jid).unassigned) {
      if (slots.take(jt_->task(tid)) == Fit::Taken) out.push_back(tid);
    }
  }
  return out;
}

}  // namespace osap
