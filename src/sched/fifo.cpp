#include "sched/fifo.hpp"

#include <algorithm>

namespace osap {

std::vector<JobId> FifoScheduler::job_queue() const {
  // The running set ascends by id, so sorting it on (priority desc, id)
  // gives the order a stable sort on priority alone would, without the
  // stable sort's temporary buffer.
  std::vector<JobId> queue(jt_->running_jobs().begin(), jt_->running_jobs().end());
  std::sort(queue.begin(), queue.end(), [this](JobId a, JobId b) {
    const int pa = jt_->job(a).spec.priority;
    const int pb = jt_->job(b).spec.priority;
    return pa != pb ? pa > pb : a < b;
  });
  return queue;
}

bool FifoScheduler::eligible(const Task& task, const TrackerStatus& status) const {
  if (!task.spec.preferred_node.valid() || task.spec.preferred_node == status.node) return true;
  // Delay scheduling [20]: hold non-local launches back until the job has
  // waited out the locality delay.
  if (locality_delay_ <= 0) return true;
  const Job& job = jt_->job(task.job);
  return jt_->now() - job.submitted_at >= locality_delay_;
}

std::vector<TaskId> FifoScheduler::assign(const TrackerStatus& status) {
  std::vector<TaskId> out;
  int maps = status.free_map_slots;
  int reduces = status.free_reduce_slots;
  if (maps <= 0 && reduces <= 0) return out;

  // Node-local (or unconstrained) tasks first, remote ones second. Both
  // passes walk one queue: nothing here changes a job's priority or the
  // running set.
  const std::vector<JobId> queue = job_queue();
  for (const bool local_pass : {true, false}) {
    for (JobId jid : queue) {
      const Job& job = jt_->job(jid);
      for (TaskId tid : job.unassigned) {
        const Task& task = jt_->task(tid);
        if (std::find(out.begin(), out.end(), tid) != out.end()) continue;
        const bool is_local =
            !task.spec.preferred_node.valid() || task.spec.preferred_node == status.node;
        if (local_pass != is_local) continue;
        if (!eligible(task, status)) continue;
        if (task.spec.type == TaskType::Map && maps > 0) {
          out.push_back(tid);
          --maps;
        } else if (task.spec.type == TaskType::Reduce && reduces > 0) {
          out.push_back(tid);
          --reduces;
        }
        if (maps <= 0 && reduces <= 0) return out;
      }
    }
  }
  return out;
}

}  // namespace osap
