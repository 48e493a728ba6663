#include "sched/deadline.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "deadline";
}

Duration DeadlineScheduler::remaining_work(JobId id) const {
  // The not-done index iterates in ascending task id — the same order the
  // old filtered walk of job.tasks summed in, so this floating-point
  // accumulation is bit-identical.
  double seconds = 0;
  for (TaskId tid : jt_->job(id).not_done) {
    const Task& t = jt_->task(tid);
    const double left = 1.0 - (t.live() ? t.progress : 0.0);
    seconds += left * static_cast<double>(t.spec.input_bytes) * kSecondsPerByte;
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
    if (job.spec.deadline >= 0 || !deadline_job_waiting) request_resumes(job);
  }
  Slots slots = drive_resumes(status);

  // EDF assignment.
  int urgent_unserved = 0;
  JobId most_urgent;
  for (JobId jid : order) {
    for (TaskId tid : jt_->job(jid).unassigned) {
      const Fit fit = slots.take(jt_->task(tid));
      if (fit == Fit::Taken) {
        out.push_back(tid);
      } else if (fit == Fit::Full) {
        // A deadline is at risk, still plausibly meetable, and there is
        // no slot for it. Hopeless jobs (slack below the give-up cutoff)
        // fall back to plain EDF rather than preempting a slot they can
        // no longer convert into a met deadline.
        const Duration slack = laxity(jid);
        if (slack < kLaxityMargin && slack >= kGiveUpLaxity) {
          ++urgent_unserved;
          if (!most_urgent.valid()) most_urgent = jid;
        }
      }
    }
  }

  // Take slots from the latest-deadline job for jobs about to miss.
  evict_paced(urgent_unserved, max_preemptions_per_heartbeat_, [&] {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (*it == most_urgent) continue;
      const TaskId victim = pick_victim(kEviction, candidates(*it));
      if (!victim.valid()) continue;
      OSAP_LOG(Info, kLog) << "deadline of job " << most_urgent << " at risk (laxity "
                           << laxity(most_urgent) << "s); preempting " << victim;
      return victim;
    }
    return TaskId{};
  });
  return out;
}

}  // namespace osap
