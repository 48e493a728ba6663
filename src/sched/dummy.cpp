#include "sched/dummy.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace osap {

void DummyScheduler::attached() { preemptor_.emplace(*jt_); }

void DummyScheduler::at_progress(const std::string& job_name, int task_index, double fraction,
                                 std::function<void()> action) {
  ProgressTrigger trigger{job_name, task_index, fraction, std::move(action), false};
  // Arm immediately if the job already exists; otherwise wait for
  // job_added.
  const auto it = by_name_.find(job_name);
  progress_triggers_.push_back(std::move(trigger));
  if (it != by_name_.end()) job_added(it->second);
}

void DummyScheduler::on_complete(const std::string& job_name, std::function<void()> action) {
  completion_triggers_.emplace_back(job_name, std::move(action));
}

JobId DummyScheduler::job_of(const std::string& job_name) const {
  const auto it = by_name_.find(job_name);
  OSAP_CHECK_MSG(it != by_name_.end(), "dummy scheduler: unknown job '" << job_name << "'");
  return it->second;
}

TaskId DummyScheduler::task_of(const std::string& job_name, int task_index) const {
  const Job& job = jt_->job(job_of(job_name));
  OSAP_CHECK_MSG(task_index >= 0 && task_index < static_cast<int>(job.tasks.size()),
                 "job '" << job_name << "' has no task #" << task_index);
  return job.tasks[static_cast<std::size_t>(task_index)];
}

bool DummyScheduler::preempt(const std::string& job_name, int task_index,
                             PreemptPrimitive primitive) {
  return preemptor_->preempt(task_of(job_name, task_index), primitive);
}

bool DummyScheduler::restore(const std::string& job_name, int task_index,
                             PreemptPrimitive primitive) {
  return preemptor_->restore(task_of(job_name, task_index), primitive);
}

bool DummyScheduler::kill_speculative(const std::string& job_name, int task_index) {
  return jt_->kill_speculative(task_of(job_name, task_index));
}

void DummyScheduler::job_added(JobId id) {
  const Job& job = jt_->job(id);
  by_name_.emplace(job.spec.name, id);
  for (ProgressTrigger& trigger : progress_triggers_) {
    if (trigger.armed || trigger.job != job.spec.name) continue;
    OSAP_CHECK_MSG(trigger.index >= 0 && trigger.index < static_cast<int>(job.tasks.size()),
                   "trigger references missing task #" << trigger.index << " of '"
                                                       << trigger.job << "'");
    trigger.armed = true;
    const TaskId task = job.tasks[static_cast<std::size_t>(trigger.index)];
    // An armed trigger never re-arms, so the watch can take its action.
    cluster_->watch_task_progress(task, trigger.fraction, std::move(trigger.action));
  }
}

void DummyScheduler::job_completed(JobId id) {
  const Job& job = jt_->job(id);
  for (auto& [name, action] : completion_triggers_) {
    if (name != job.spec.name || !action) continue;
    auto fire = std::move(action);
    action = nullptr;  // each completion trigger fires once
    fire();
  }
}

}  // namespace osap
