#include "sched/capacity.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "capacity";

/// Per-queue `preempt=` attributes are policy rules keyed on the donor
/// (preempted) queue, appended after any explicit ones. Parsing them
/// here also rejects a bad spelling when the scheduler is built.
policy::PolicyOptions with_queue_rules(const CapacityScheduler::Options& options) {
  policy::PolicyOptions popts = options.policy;
  for (const CapacityScheduler::QueueConfig& q : options.queues) {
    if (!q.preempt.empty()) popts.per_queue.emplace_back(q.name, parse_primitive(q.preempt));
  }
  return popts;
}
}  // namespace

CapacityScheduler::CapacityScheduler(Options options)
    : PreemptingScheduler(options.primitive, with_queue_rules(options)),
      options_(std::move(options)) {
  OSAP_CHECK_MSG(!options_.queues.empty(), "capacity scheduler needs at least one queue");
  double total = 0;
  for (const QueueConfig& q : options_.queues) {
    OSAP_CHECK_MSG(q.capacity > 0 && q.capacity <= 1.0,
                   "queue '" << q.name << "' capacity must be in (0,1]");
    total += q.capacity;
  }
  OSAP_CHECK_MSG(total <= 1.0 + 1e-9, "queue capacities exceed the cluster");
}

void CapacityScheduler::attached() {
  PreemptingScheduler::attached();
  for (const QueueConfig& q : options_.queues) satisfied_at_[q.name] = jt_->now();
}

void CapacityScheduler::job_added(JobId id) {
  const std::string& queue = queue_of(id);
  OSAP_CHECK_MSG(satisfied_at_.contains(queue),
                 "job submitted to unknown queue '" << queue << "'");
}

const std::string& CapacityScheduler::queue_of(JobId id) const {
  return jt_->job(id).spec.queue;
}

int CapacityScheduler::guaranteed_slots(const std::string& queue) const {
  for (const QueueConfig& q : options_.queues) {
    if (q.name == queue) {
      return std::max(1, static_cast<int>(std::floor(
                             q.capacity * jt_->cluster_map_slots() + 1e-9)));
    }
  }
  return 0;
}

int CapacityScheduler::used_slots(const std::string& queue) const {
  // Every job (even a non-Running one whose attempts are still winding
  // down) can hold slots: Running | MustSuspend | MustResume is the live
  // index minus the parked Suspended tasks.
  int used = 0;
  for (JobId jid : jt_->jobs_in_order()) {
    if (queue_of(jid) != queue) continue;
    const Job& job = jt_->job(jid);
    used += static_cast<int>(job.live.size() - job.suspended.size());
  }
  return used;
}

bool CapacityScheduler::queue_has_demand(const std::string& queue) const {
  for (JobId jid : jt_->running_jobs()) {
    if (queue_of(jid) != queue) continue;
    if (!jt_->job(jid).unassigned.empty()) return true;
  }
  return false;
}

void CapacityScheduler::check_guarantees() {
  const SimTime now = jt_->now();
  for (const QueueConfig& q : options_.queues) {
    const int guaranteed = guaranteed_slots(q.name);
    if (used_slots(q.name) >= guaranteed || !queue_has_demand(q.name)) {
      satisfied_at_[q.name] = now;
      continue;
    }
    if (now - satisfied_at_[q.name] < options_.preemption_timeout) continue;

    // Reclaim a borrowed slot from the most over-capacity queue.
    const QueueConfig* donor = nullptr;
    int donor_excess = 0;
    for (const QueueConfig& other : options_.queues) {
      if (other.name == q.name) continue;
      const int excess = used_slots(other.name) - guaranteed_slots(other.name);
      if (excess > donor_excess) {
        donor_excess = excess;
        donor = &other;
      }
    }
    if (donor == nullptr) continue;
    std::vector<EvictionCandidate> pool;
    for (JobId jid : jt_->jobs_in_order()) {
      if (queue_of(jid) != donor->name) continue;
      const std::vector<EvictionCandidate> more = candidates(jid);
      pool.insert(pool.end(), more.begin(), more.end());
    }
    const TaskId victim = pick_victim(kEviction, pool);
    if (!victim.valid()) continue;
    OSAP_LOG(Info, kLog) << "queue '" << q.name << "' under its guarantee; preempting "
                         << victim << " from queue '" << donor->name << "'";
    if (evict(victim)) satisfied_at_[q.name] = now;
  }
}

std::vector<TaskId> CapacityScheduler::assign(const TrackerStatus& status) {
  check_guarantees();

  // Resume suspended tasks only if their queue is within its guarantee
  // and no under-guarantee queue is waiting for a slot.
  bool someone_waiting = false;
  for (const QueueConfig& q : options_.queues) {
    if (used_slots(q.name) < guaranteed_slots(q.name) && queue_has_demand(q.name)) {
      someone_waiting = true;
      break;
    }
  }
  if (!someone_waiting) {
    // Suspended tasks of every job, Running or not.
    for (JobId jid : jt_->jobs_with_suspended()) request_resumes(jt_->job(jid));
  }
  Slots slots = drive_resumes(status);

  // Serve queues by how far below their guarantee they sit.
  std::vector<const QueueConfig*> order;
  for (const QueueConfig& q : options_.queues) order.push_back(&q);
  std::sort(order.begin(), order.end(), [this](const QueueConfig* a, const QueueConfig* b) {
    const int da = used_slots(a->name) - guaranteed_slots(a->name);
    const int db = used_slots(b->name) - guaranteed_slots(b->name);
    if (da != db) return da < db;
    return a->name < b->name;
  });

  std::vector<TaskId> out;
  for (const QueueConfig* q : order) {
    for (JobId jid : jt_->running_jobs()) {
      if (queue_of(jid) != q->name) continue;
      for (TaskId tid : jt_->job(jid).unassigned) {
        if (slots.take(jt_->task(tid)) == Fit::Taken) out.push_back(tid);
      }
    }
  }
  return out;
}

}  // namespace osap
