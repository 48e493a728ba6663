#include "sched/deadline.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "deadline";
}

void DeadlineScheduler::attached() {
  policy_.emplace(*jt_, options_.primitive, options_.policy);
  resume_policy_.emplace(*jt_, options_.resume_locality_threshold);
}

Duration DeadlineScheduler::remaining_work(JobId id) const {
  // The not-done index iterates in ascending task id — the same order the
  // old filtered walk of job.tasks summed in, so this floating-point
  // accumulation is bit-identical.
  double seconds = 0;
  for (TaskId tid : jt_->job(id).not_done) {
    const Task& t = jt_->task(tid);
    const double left = 1.0 - (t.live() ? t.progress : 0.0);
    seconds += left * static_cast<double>(t.spec.input_bytes) * options_.seconds_per_byte;
  }
  return seconds;
}

Duration DeadlineScheduler::laxity(JobId id) const {
  const Job& job = jt_->job(id);
  if (job.spec.deadline < 0) return kTimeNever;
  return job.spec.deadline - jt_->now() - remaining_work(id);
}

std::vector<JobId> DeadlineScheduler::edf_order() const {
  std::vector<JobId> order(jt_->running_jobs().begin(), jt_->running_jobs().end());
  std::stable_sort(order.begin(), order.end(), [this](JobId a, JobId b) {
    const SimTime da = jt_->job(a).spec.deadline < 0 ? kTimeNever : jt_->job(a).spec.deadline;
    const SimTime db = jt_->job(b).spec.deadline < 0 ? kTimeNever : jt_->job(b).spec.deadline;
    return da < db;
  });
  return order;
}

std::vector<TaskId> DeadlineScheduler::assign(const TrackerStatus& status) {
  std::vector<TaskId> out;
  const std::vector<JobId> order = edf_order();
  if (order.empty()) return out;

  // Urgent jobs get their suspended tasks back first; deadline-less
  // victims come back once no deadline job is waiting for a slot (they
  // must come back eventually, or preemption would turn into starvation).
  bool deadline_job_waiting = false;
  for (JobId jid : order) {
    const Job& job = jt_->job(jid);
    if (job.spec.deadline < 0) continue;
    if (!job.unassigned.empty()) {
      deadline_job_waiting = true;
      break;
    }
  }
  for (JobId jid : order) {
    const Job& job = jt_->job(jid);
    if (job.spec.deadline < 0 && deadline_job_waiting) continue;
    // request_resume only queues; transitions happen in on_heartbeat.
    for (TaskId tid : job.suspended) resume_policy_->request_resume(tid);
  }
  int free_maps = status.free_map_slots;
  int free_reduces = status.free_reduce_slots;
  free_maps -= resume_policy_->on_heartbeat(status);

  // EDF assignment.
  int urgent_unserved = 0;
  JobId most_urgent;
  for (JobId jid : order) {
    for (TaskId tid : jt_->job(jid).unassigned) {
      const Task& task = jt_->task(tid);
      if (task.spec.preferred_node.valid() && task.spec.preferred_node != status.node) continue;
      int& budget = task.spec.type == TaskType::Map ? free_maps : free_reduces;
      if (budget > 0) {
        out.push_back(tid);
        --budget;
      } else if (const Duration slack = laxity(jid);
                 slack < options_.laxity_margin && slack >= options_.give_up_laxity) {
        // A deadline is at risk, still plausibly meetable, and there is
        // no slot for it. Hopeless jobs (slack below the give-up cutoff)
        // fall back to plain EDF rather than preempting a slot they can
        // no longer convert into a met deadline.
        ++urgent_unserved;
        if (!most_urgent.valid()) most_urgent = jid;
      }
    }
  }

  // Take slots from the latest-deadline job for jobs about to miss. As
  // in HFSP, the budget paces effective preemptions only: a refused
  // order (lost/blacklisted tracker) excludes its victim and retries
  // without consuming the budget.
  int budget = options_.max_preemptions_per_heartbeat;
  std::vector<TaskId> refused;
  while (urgent_unserved > 0 && budget > 0) {
    TaskId victim;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (*it == most_urgent) continue;
      std::vector<EvictionCandidate> candidates = collect_candidates(*jt_, *it);
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&refused](const EvictionCandidate& c) {
                                        return std::find(refused.begin(), refused.end(),
                                                         c.task) != refused.end();
                                      }),
                       candidates.end());
      victim = pick_victim(options_.eviction, candidates);
      if (victim.valid()) break;
    }
    if (!victim.valid()) break;
    OSAP_LOG(Info, kLog) << "deadline of job " << most_urgent << " at risk (laxity "
                         << laxity(most_urgent) << "s); preempting " << victim;
    if (policy_->preempt(victim).issued) {
      ++preemptions_;
      --urgent_unserved;
      --budget;
    } else {
      refused.push_back(victim);
    }
  }
  return out;
}

}  // namespace osap
