#include "sched/capacity.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "capacity";
}

CapacityScheduler::CapacityScheduler(Options options) : options_(std::move(options)) {
  OSAP_CHECK_MSG(!options_.queues.empty(), "capacity scheduler needs at least one queue");
  double total = 0;
  for (const QueueConfig& q : options_.queues) {
    OSAP_CHECK_MSG(q.capacity > 0 && q.capacity <= 1.0,
                   "queue '" << q.name << "' capacity must be in (0,1]");
    if (!q.preempt.empty()) parse_primitive(q.preempt);  // validate eagerly
    total += q.capacity;
  }
  OSAP_CHECK_MSG(total <= 1.0 + 1e-9, "queue capacities exceed the cluster");
}

void CapacityScheduler::attached() {
  // Per-queue `preempt=` attributes are policy rules keyed on the donor
  // (preempted) queue, appended after any explicit ones.
  policy::PolicyOptions popts = options_.policy;
  for (const QueueConfig& q : options_.queues) {
    if (!q.preempt.empty()) popts.per_queue.emplace_back(q.name, parse_primitive(q.preempt));
  }
  policy_.emplace(*jt_, options_.primitive, std::move(popts));
  resume_policy_.emplace(*jt_, options_.resume_locality_threshold);
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
                             q.capacity * options_.cluster_map_slots + 1e-9)));
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
    std::vector<EvictionCandidate> candidates;
    for (JobId jid : jt_->jobs_in_order()) {
      if (queue_of(jid) != donor->name) continue;
      auto more = collect_candidates(*jt_, jid);
      candidates.insert(candidates.end(), more.begin(), more.end());
    }
    const TaskId victim = pick_victim(options_.eviction, candidates);
    if (!victim.valid()) continue;
    OSAP_LOG(Info, kLog) << "queue '" << q.name << "' under its guarantee; preempting "
                         << victim << " from queue '" << donor->name << "'";
    if (policy_->preempt(victim).issued) {
      ++preemptions_;
      satisfied_at_[q.name] = now;
    }
  }
}

std::vector<TaskId> CapacityScheduler::assign(const TrackerStatus& status) {
  check_guarantees();

  int free_maps = status.free_map_slots;
  int free_reduces = status.free_reduce_slots;

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
    // Suspended tasks of every job, Running or not (request_resume only
    // queues; transitions happen in on_heartbeat below).
    for (JobId jid : jt_->jobs_with_suspended()) {
      for (TaskId tid : jt_->job(jid).suspended) resume_policy_->request_resume(tid);
    }
  }
  free_maps -= resume_policy_->on_heartbeat(status);

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
      const Job& job = jt_->job(jid);
      if (queue_of(jid) != q->name) continue;
      for (TaskId tid : job.unassigned) {
        const Task& task = jt_->task(tid);
        if (task.spec.preferred_node.valid() && task.spec.preferred_node != status.node) {
          continue;
        }
        int& budget = task.spec.type == TaskType::Map ? free_maps : free_reduces;
        if (budget <= 0) continue;
        out.push_back(tid);
        --budget;
      }
    }
  }
  return out;
}

}  // namespace osap
