// The dummy scheduler (§III-B).
//
// "We factor out the role of task eviction policies … by building a new
// scheduling component for Hadoop — a dummy scheduler — which dictates
// task eviction according to static configuration files. This allows to
// specify, using a series of simple triggers, which jobs/tasks are run in
// the cluster and which are preempted."
//
// Triggers (a job arriving at an absolute time is Cluster::submit_at):
//   at_progress(job, idx, r, action)      fire when the task hits r%
//   on_complete(job, action)              fire when the job completes
//
// plus convenience actions that apply a preemption primitive to a task by
// name (wait / kill / susp / natjam). Task assignment itself falls back
// to FIFO-by-priority.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hadoop/cluster.hpp"
#include "preempt/preemptor.hpp"
#include "sched/fifo.hpp"

namespace osap {

class DummyScheduler : public FifoScheduler {
 public:
  explicit DummyScheduler(Cluster& cluster, Duration locality_delay = seconds(6))
      : FifoScheduler(locality_delay), cluster_(&cluster) {}

  // --- trigger configuration ---------------------------------------------
  void at_progress(const std::string& job_name, int task_index, double fraction,
                   std::function<void()> action);
  void on_complete(const std::string& job_name, std::function<void()> action);

  // --- convenience actions -------------------------------------------------
  /// Apply `primitive` to the named task (Wait is a no-op by design).
  bool preempt(const std::string& job_name, int task_index, PreemptPrimitive primitive);
  /// Resume/reschedule the named task after the high-priority work.
  bool restore(const std::string& job_name, int task_index, PreemptPrimitive primitive);
  /// Kill only the named task's racing backup attempt (speculative
  /// execution); the primary attempt is untouched. False when none races.
  bool kill_speculative(const std::string& job_name, int task_index);

  /// Whether a job of that name has been submitted.
  [[nodiscard]] bool has_job(const std::string& job_name) const {
    return by_name_.contains(job_name);
  }
  [[nodiscard]] JobId job_of(const std::string& job_name) const;
  [[nodiscard]] TaskId task_of(const std::string& job_name, int task_index) const;

  // --- Scheduler hooks -------------------------------------------------------
  void job_added(JobId id) override;
  void job_completed(JobId id) override;

 private:
  void attached() override;

  Cluster* cluster_;
  std::optional<Preemptor> preemptor_;
  std::unordered_map<std::string, JobId> by_name_;
  struct ProgressTrigger {
    std::string job;
    int index;
    double fraction;
    std::function<void()> action;
    bool armed = false;
  };
  std::vector<ProgressTrigger> progress_triggers_;
  std::vector<std::pair<std::string, std::function<void()>>> completion_triggers_;
};

}  // namespace osap
