#include "hadoop/job_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "hadoop/task_tracker.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "jobtracker";

[[nodiscard]] constexpr bool state_live(TaskState s) noexcept {
  return s == TaskState::Running || s == TaskState::MustSuspend ||
         s == TaskState::Suspended || s == TaskState::MustResume;
}
[[nodiscard]] constexpr bool state_done(TaskState s) noexcept {
  return s == TaskState::Succeeded || s == TaskState::Failed;
}

/// A task's contribution to its job's remaining-bytes total: the HFSP
/// remaining size counts floor((1-progress) * input) for every not-done
/// task, with progress counting only while an attempt is live.
[[nodiscard]] Bytes remaining_contrib(const Task& t) noexcept {
  if (state_done(t.state)) return 0;
  const double left = 1.0 - (state_live(t.state) ? t.progress : 0.0);
  return static_cast<Bytes>(left * static_cast<double>(t.spec.input_bytes));
}

/// Add or remove `id` from the index sets a task in state `s` belongs to.
void index_task(Job& job, TaskId id, TaskState s, bool add) {
  const auto upd = [&](FlatIdSet<TaskId>& set) {
    if (add) {
      set.insert(id);
    } else {
      set.erase(id);
    }
  };
  if (s == TaskState::Unassigned) upd(job.unassigned);
  if (state_live(s)) upd(job.live);
  if (s == TaskState::Suspended) upd(job.suspended);
  if (!state_done(s)) upd(job.not_done);
}

}  // namespace

JobTracker::JobTracker(Simulation& sim, Network& net, NodeId master, HadoopConfig cfg)
    : sim_(sim), net_(net), master_(master), cfg_(cfg), protocol_audit_(sim) {
  sim_.audits().add(this);
  tracer_ = &sim_.trace().tracer();
  trk_ = tracer_->track("cluster", "jobtracker");
  sched_trk_ = tracer_->track("cluster", "scheduler");
  shuffle_trk_ = tracer_->track("cluster", "shuffle");
  trace::CounterRegistry& counters = sim_.trace().counters();
  ctr_heartbeats_ = &counters.counter(trace::names::kJtHeartbeatsHandled);
  ctr_actions_ = &counters.counter(trace::names::kJtActionsSent);
  ctr_oob_maps_done_ = &counters.counter(trace::names::kJtOobMapsDonePushes);
  ctr_assignments_ = &counters.counter(trace::names::kSchedAssignments);
  ctr_suspends_ = &counters.counter(trace::names::kJtSuspendRequests);
  ctr_resumes_ = &counters.counter(trace::names::kJtResumeRequests);
  ctr_trackers_lost_ = &counters.counter(trace::names::kJtTrackersLost);
  ctr_tracker_reinits_ = &counters.counter(trace::names::kJtTrackerReinits);
  ctr_trackers_blacklisted_ = &counters.counter(trace::names::kJtTrackersBlacklisted);
  ctr_tasks_lost_ = &counters.counter(trace::names::kJtTasksLost);
  ctr_task_failures_ = &counters.counter(trace::names::kJtTaskFailures);
  ctr_map_outputs_lost_ = &counters.counter(trace::names::kJtMapOutputsLost);
  ctr_checkpoints_lost_ = &counters.counter(trace::names::kJtCheckpointsLost);
  ctr_jobs_failed_ = &counters.counter(trace::names::kJtJobsFailed);
  ctr_trackers_draining_ = &counters.counter(trace::names::kJtTrackersDraining);
  ctr_checkpoints_evacuated_ = &counters.counter(trace::names::kJtCheckpointsEvacuated);
  ctr_spec_launched_ = &counters.counter(trace::names::kSpecLaunched);
  ctr_spec_won_ = &counters.counter(trace::names::kSpecWon);
  ctr_spec_lost_ = &counters.counter(trace::names::kSpecLost);
  ctr_spec_killed_ = &counters.counter(trace::names::kSpecKilled);
  if (cfg_.tracker_expiry > 0 && cfg_.expiry_check_interval > 0) {
    lease_timer_ = sim_.after(cfg_.expiry_check_interval, [this] { check_leases(); });
  }
}

JobTracker::~JobTracker() {
  if (lease_timer_ != 0) sim_.cancel(lease_timer_);
  sim_.audits().remove(this);
}

void JobTracker::register_tracker(TaskTracker& tracker) {
  const auto idx = static_cast<std::uint32_t>(tracker_slots_.size());
  OSAP_CHECK_MSG(tracker.id().value() == idx,
                 tracker.id() << " registered out of order: tracker ids are dense, from 0");
  TrackerSlot slot;
  slot.tracker = &tracker;
  slot.id = tracker.id();
  // The lease starts at registration: a tracker that never heartbeats at
  // all still expires.
  slot.last_heartbeat = sim_.now();
  tracker_slots_.push_back(slot);
}

void JobTracker::set_scheduler(Scheduler* scheduler) {
  scheduler_ = scheduler;
  if (scheduler_ != nullptr) scheduler_->attach(*this);
}

TaskTracker* JobTracker::tracker(TrackerId id) {
  TrackerSlot* s = slot(id);
  return s == nullptr ? nullptr : s->tracker;
}

Job& JobTracker::job_ref(JobId id) {
  OSAP_CHECK_MSG(id.value() < jobs_.size(), "unknown " << id);
  return jobs_[id.value()];
}

void JobTracker::set_task_state(Task& task, TaskState to) {
  const TaskState from = task.state;
  if (from == to) return;
  Job& job = job_ref(task.job);
  job.remaining_bytes -= remaining_contrib(task);
  index_task(job, task.id, from, /*add=*/false);
  task.state = to;
  index_task(job, task.id, to, /*add=*/true);
  if (from == TaskState::Suspended || to == TaskState::Suspended) {
    if (job.suspended.empty()) {
      jobs_with_suspended_.erase(job.id);
    } else {
      jobs_with_suspended_.insert(job.id);
    }
  }
  job.remaining_bytes += remaining_contrib(task);
  set_spec_next_check(job, 0);
  reindex_job(job);
  if (task.spec.type == TaskType::Map) {
    // The shuffle-barrier count tracks maps crossing the SUCCEEDED
    // boundary in either direction (a lost map output moves one back).
    if (to == TaskState::Succeeded) --job.maps_not_succeeded;
    if (from == TaskState::Succeeded) ++job.maps_not_succeeded;
  }
}

void JobTracker::reindex_job(Job& job) {
  const bool running = job.state == JobState::Running;
  const Bytes key = running ? job.remaining_bytes : 0;
  if (key != job.indexed_remaining) {
    if (job.indexed_remaining != 0) jobs_by_remaining_.erase({job.indexed_remaining, job.id});
    if (key != 0) jobs_by_remaining_.insert({key, job.id});
    job.indexed_remaining = key;
  }
  if (running && !job.unassigned.empty()) {
    schedulable_jobs_.insert(job.id);
  } else {
    schedulable_jobs_.erase(job.id);
  }
  // A finished job leaves the speculation agenda; its wheel filings go
  // stale and are dropped when they come due.
  if (!running) spec_due_.erase(job.id);
}

void JobTracker::set_spec_next_check(Job& job, SimTime bound) {
  job.spec_next_check = bound;
  if (!cfg_.speculative_execution || job.state != JobState::Running) return;
  if (bound <= sim_.now()) {
    spec_due_.insert(job.id);
    return;
  }
  spec_due_.erase(job.id);
  if (bound < kTimeNever) {
    spec_wheel_.push_back(SpecFiling{bound, job.id});
    std::push_heap(spec_wheel_.begin(), spec_wheel_.end(), SpecFiling::later);
  }
}

void JobTracker::set_task_spec(TaskId id, TaskSpec spec) {
  Task& task = task_mutable(id);
  Job& job = job_ref(task.job);
  job.remaining_bytes -= remaining_contrib(task);
  task.spec = std::move(spec);
  job.remaining_bytes += remaining_contrib(task);
  set_spec_next_check(job, 0);
  reindex_job(job);
}

void JobTracker::set_task_progress(Task& task, double progress) {
  // Restating the stored progress moves neither the job's remaining bytes
  // nor any input of its straggler bound, so the cached bound stands.
  if (progress == task.progress) return;
  Job& job = job_ref(task.job);
  job.remaining_bytes -= remaining_contrib(task);
  task.progress = progress;
  job.remaining_bytes += remaining_contrib(task);
  set_spec_next_check(job, 0);
  reindex_job(job);
}

void JobTracker::emit(ClusterEventType type, JobId job, TaskId task, NodeId node) {
  const ClusterEvent event{sim_.now(), type, job, task, node};
  protocol_audit_.observe(event);
  for (const auto& hook : event_hooks_) hook(event);
}

JobId JobTracker::submit_job(JobSpec spec) {
  Job job;
  job.id = job_ids_.next();
  OSAP_CHECK(job.id.value() == jobs_.size());  // dense ids index jobs_ directly
  job.submitted_at = sim_.now();
  for (TaskSpec& ts : spec.tasks) {
    Task task;
    task.id = task_ids_.next();
    OSAP_CHECK(task.id.value() == tasks_.size());
    task.job = job.id;
    if (ts.name == "task") ts.name = spec.name + "/" + std::to_string(job.tasks.size());
    task.spec = ts;
    job.tasks.push_back(task.id);
    job.unassigned.insert(task.id);
    job.not_done.insert(task.id);
    job.remaining_bytes += remaining_contrib(task);
    if (task.spec.type == TaskType::Map) ++job.maps_not_succeeded;
    tasks_.push_back(std::move(task));
  }
  job.spec = std::move(spec);
  const JobId id = job.id;
  OSAP_LOG(Info, kLog) << "job " << id << " (" << job.spec.name << ") submitted with "
                       << job.tasks.size() << " tasks";
  jobs_.push_back(std::move(job));
  job_order_.push_back(id);
  running_jobs_.insert(id);
  reindex_job(jobs_[id.value()]);
  set_spec_next_check(jobs_[id.value()], 0);  // never scanned: due
  const Job& stored = jobs_[id.value()];
  tracer_->async_begin(trk_, "job", id.value(),
                       {{"name", stored.spec.name},
                        {"tasks", static_cast<std::uint64_t>(stored.tasks.size())}});
  emit(ClusterEventType::JobSubmitted, id, TaskId{}, NodeId{});
  if (scheduler_ != nullptr) scheduler_->job_added(id);
  return id;
}

bool JobTracker::suspend_task(TaskId id) {
  Task& t = task_mutable(id);
  if (t.state != TaskState::Running) {
    OSAP_LOG(Warn, kLog) << "suspend " << id << " rejected in state " << to_string(t.state);
    return false;
  }
  set_task_state(t, TaskState::MustSuspend);
  unsent_commands_.insert(id);
  ctr_suspends_->add();
  tracer_->async_begin(trk_, "suspend", id.value(), {{"kind", "sigtstp"}});
  emit(ClusterEventType::TaskSuspendRequested, t.job, id, t.node);
  return true;
}

bool JobTracker::checkpoint_suspend_task(TaskId id) {
  Task& t = task_mutable(id);
  if (t.state != TaskState::Running) {
    OSAP_LOG(Warn, kLog) << "checkpoint-suspend " << id << " rejected in state "
                         << to_string(t.state);
    return false;
  }
  set_task_state(t, TaskState::MustSuspend);
  t.use_checkpoint = true;
  unsent_commands_.insert(id);
  ctr_suspends_->add();
  tracer_->async_begin(trk_, "suspend", id.value(), {{"kind", "checkpoint"}});
  emit(ClusterEventType::TaskSuspendRequested, t.job, id, t.node);
  return true;
}

bool JobTracker::resume_task(TaskId id) {
  Task& t = task_mutable(id);
  if (t.state != TaskState::Suspended) {
    OSAP_LOG(Warn, kLog) << "resume " << id << " rejected in state " << to_string(t.state);
    return false;
  }
  if (kill_pending_on(id, t.tracker)) {
    // A kill is queued for the parked attempt (it stays Suspended until
    // the tracker reports it dead); resuming it would race that kill.
    OSAP_LOG(Warn, kLog) << "resume " << id << " rejected: kill pending";
    return false;
  }
  ctr_resumes_->add();
  emit(ClusterEventType::TaskResumeRequested, t.job, id, t.node);
  if (t.checkpointed) {
    if (t.speculating()) {
      // A backup attempt is already racing the parked original: the
      // fastest way to "resume" the task is to adopt that running copy
      // rather than relaunch from the checkpoint and widen the race.
      t.checkpointed = false;
      promote_speculative(t);
      return true;
    }
    tracer_->instant(trk_, "resume_checkpointed", {{"task", id.value()}});
    // No process to SIGCONT: relaunch with fast-forward from the saved
    // counters (and re-read of any serialized state).
    t.spec.checkpoint_progress = t.progress;
    t.spec.checkpoint_state = t.spec.state_memory + 64 * KiB;
    t.checkpointed = false;
    t.use_checkpoint = false;
    set_task_progress(t, 0);
    task_terminal(t, TaskState::Unassigned);
    return true;
  }
  set_task_state(t, TaskState::MustResume);
  unsent_commands_.insert(id);
  tracer_->async_begin(trk_, "resume", id.value());
  return true;
}

bool JobTracker::kill_task(TaskId id) {
  Task& t = task_mutable(id);
  if (!t.live()) {
    OSAP_LOG(Warn, kLog) << "kill " << id << " rejected in state " << to_string(t.state);
    return false;
  }
  // Killing the task means killing every attempt; the backup copy goes
  // budget-free through the attempt-only machinery.
  if (t.speculating()) kill_speculative(id);
  if (t.state == TaskState::Suspended && t.checkpointed) {
    // Checkpoint-parked: there is no process (and no tracker binding) to
    // send a Kill action to — a queued must_kill_ entry would never match
    // a tracker and wedge forever. Discard the checkpoint in place.
    emit(ClusterEventType::TaskKillRequested, t.job, id, NodeId{});
    emit(ClusterEventType::TaskKilled, t.job, id, NodeId{});
    t.checkpointed = false;
    t.spec.checkpoint_progress = 0;
    t.spec.checkpoint_state = 0;
    t.checkpoint_node = NodeId{};
    task_terminal(t, TaskState::Unassigned);
    reset_attempt_state(t);
    return true;
  }
  enqueue_kill(id, t.tracker, /*attempt_only=*/false);
  emit(ClusterEventType::TaskKillRequested, t.job, id, t.node);
  return true;
}

bool JobTracker::kill_speculative(TaskId id) {
  Task& t = task_mutable(id);
  if (!t.speculating()) return false;
  emit(ClusterEventType::TaskKillRequested, t.job, id, t.spec_node);
  enqueue_kill(id, t.spec_tracker, /*attempt_only=*/true);
  clear_speculative(t);
  return true;
}

void JobTracker::enqueue_kill(TaskId id, TrackerId target, bool attempt_only) {
  OSAP_CHECK_MSG(target.valid(), "kill order for " << id << " with no tracker");
  std::vector<KillOrder>& orders = must_kill_[id];
  for (KillOrder& order : orders) {
    if (order.tracker != target) continue;
    // Repeated kill (e.g. fail_job after an explicit kill): re-arm the
    // existing order so the command is resent, matching the pre-race
    // overwrite semantics.
    order.sent = false;
    order.attempt_only = order.attempt_only && attempt_only;
    return;
  }
  orders.push_back(KillOrder{target, /*sent=*/false, attempt_only});
}

bool JobTracker::erase_kill_order(TaskId id, TrackerId target, bool* attempt_only) {
  const auto it = must_kill_.find(id);
  if (it == must_kill_.end()) return false;
  std::vector<KillOrder>& orders = it->second;
  for (auto order = orders.begin(); order != orders.end(); ++order) {
    if (order->tracker != target) continue;
    if (attempt_only != nullptr) *attempt_only = order->attempt_only;
    orders.erase(order);
    if (orders.empty()) must_kill_.erase(it);
    return true;
  }
  return false;
}

bool JobTracker::kill_pending_on(TaskId id, TrackerId target) const {
  const auto it = must_kill_.find(id);
  if (it == must_kill_.end()) return false;
  for (const KillOrder& order : it->second) {
    if (order.tracker == target) return true;
  }
  return false;
}

void JobTracker::apply_report(const TrackerStatus& status, const TaskStatusReport& report) {
  if (report.task.value() >= tasks_.size()) return;
  Task& t = tasks_[report.task.value()];
  t.swapped_out = std::max(t.swapped_out, report.swapped_out);
  t.swapped_in = std::max(t.swapped_in, report.swapped_in);
  // Every report is routed per attempt by its reporting tracker: the
  // primary attempt lives on t.tracker, a racing backup copy on
  // t.spec_tracker, and anything else is stale.
  const bool from_primary = t.tracker == status.tracker;
  const bool from_backup = t.speculating() && t.spec_tracker == status.tracker;
  switch (report.kind) {
    case ReportKind::Progress:
      if (t.live() && from_primary) {
        set_task_progress(t, report.progress);
      } else if (t.live() && from_backup) {
        t.spec_progress = report.progress;
      }
      break;
    case ReportKind::Suspended:
      if (t.state == TaskState::MustSuspend && t.tracker == status.tracker) {
        set_task_state(t, TaskState::Suspended);
        tracer_->async_end(trk_, "suspend", t.id.value());
        emit(ClusterEventType::TaskSuspended, t.job, t.id, status.node);
      }
      break;
    case ReportKind::Resumed:
      if ((t.state == TaskState::MustResume || t.state == TaskState::Suspended) &&
          t.tracker == status.tracker) {
        if (t.state == TaskState::MustResume) {
          tracer_->async_end(trk_, "resume", t.id.value());
        }
        set_task_state(t, TaskState::Running);
        emit(ClusterEventType::TaskResumed, t.job, t.id, status.node);
      }
      break;
    case ReportKind::Succeeded:
      if (!t.done() && from_primary) {
        // The original finished first: a still-racing copy is the loser
        // and is killed budget-free (first-finisher-wins, §speculation).
        if (t.speculating()) kill_speculative(t.id);
        task_succeeded(t, status.node);
      } else if (!t.done() && from_backup) {
        // The backup attempt won the race; its output is the task's
        // output. The original attempt is the loser.
        ctr_spec_won_->add();
        emit(ClusterEventType::SpeculationWon, t.job, t.id, status.node);
        if (t.state == TaskState::Suspended && t.checkpointed) {
          // Checkpoint-parked original: no process to kill — discard the
          // parked checkpoint in place.
          t.checkpointed = false;
          t.spec.checkpoint_progress = 0;
          t.spec.checkpoint_state = 0;
          t.checkpoint_node = NodeId{};
        } else if (t.tracker.valid()) {
          emit(ClusterEventType::TaskKillRequested, t.job, t.id, t.node);
          enqueue_kill(t.id, t.tracker, /*attempt_only=*/true);
        }
        clear_speculative(t);
        task_succeeded(t, status.node);
      } else {
        // A race loser finished before its Kill landed (dead heat): retire
        // the pending order — the attempt exited on its own and its
        // output is discarded in favor of the winner's.
        if (erase_kill_order(t.id, status.tracker)) {
          tracer_->instant(trk_, "speculation_dead_heat", {{"task", t.id.value()}});
        }
      }
      break;
    case ReportKind::KilledAck: {
      bool attempt_only = false;
      if (!erase_kill_order(t.id, status.tracker, &attempt_only)) break;
      if (attempt_only) {
        // A race loser (original or copy) is gone and cleaned; the task's
        // own state was already settled by the winner, so only count it.
        ctr_spec_killed_->add();
        emit(ClusterEventType::SpeculationKilled, t.job, t.id, status.node);
        break;
      }
      // The attempt is gone and its temporary output cleaned; the task
      // itself goes back to the pool, losing all progress — the kill
      // primitive's defining cost. A stale ack (the task was already
      // forfeited to a lost tracker and rebound elsewhere) is ignored.
      if (!t.live() || !from_primary) break;
      emit(ClusterEventType::TaskKilled, t.job, t.id, status.node);
      task_terminal(t, TaskState::Unassigned);
      reset_attempt_state(t);
      break;
    }
    case ReportKind::Failed: {
      if (!t.live()) break;
      if (from_backup) {
        // The copy died unrequested: the race dissolves and the healthy
        // original carries on. No attempt-budget charge (speculation is
        // the framework's gamble, not the task's fault), but the flaky
        // tracker is still noted for blacklisting.
        ctr_spec_lost_->add();
        emit(ClusterEventType::SpeculationLost, t.job, t.id, status.node);
        clear_speculative(t);
        note_tracker_failure(status.tracker, status.node);
        break;
      }
      if (!from_primary) {
        // A race loser died (e.g. OOM) before its Kill landed: treat the
        // death as the ack it will never send.
        bool attempt_only = false;
        if (erase_kill_order(t.id, status.tracker, &attempt_only) && attempt_only) {
          ctr_spec_killed_->add();
          emit(ClusterEventType::SpeculationKilled, t.job, t.id, status.node);
        }
        break;
      }
      emit(ClusterEventType::TaskFailed, t.job, t.id, status.node);
      ctr_task_failures_->add();
      ++t.attempts_failed;
      note_tracker_failure(status.tracker, status.node);
      if (t.attempts_failed >= cfg_.max_task_attempts) {
        // Attempt budget exhausted: the task fails terminally and takes
        // its job down (Hadoop 1 `mapred.*.max.attempts` semantics). A
        // Failed task counts toward nothing — maybe_complete_job only
        // counts Succeeded. A racing copy cannot save an exhausted task.
        OSAP_LOG(Warn, kLog) << t.id << " failed " << t.attempts_failed
                             << " attempts, failing " << t.job;
        if (t.speculating()) kill_speculative(t.id);
        task_terminal(t, TaskState::Failed);
        reset_attempt_state(t);
        fail_job(t.job, t.id, status.node);
      } else if (t.speculating()) {
        // The original died but a copy is already racing: adopt the copy
        // instead of requeueing from scratch.
        promote_speculative(t);
      } else {
        task_terminal(t, TaskState::Unassigned);
        reset_attempt_state(t);
      }
      break;
    }
    case ReportKind::Checkpointed:
      if (t.state == TaskState::MustSuspend && t.tracker == status.tracker) {
        set_task_state(t, TaskState::Suspended);
        tracer_->async_end(trk_, "suspend", t.id.value(), {{"checkpointed", 1}});
        t.checkpointed = true;
        set_task_progress(t, report.progress);
        t.checkpoint_node = status.node;
        // The JVM is gone; the task is no longer bound to the tracker
        // (though checkpoint files make same-node relaunches cheaper).
        t.node = NodeId{};
        t.tracker = TrackerId{};
        unsent_commands_.erase(t.id);
        emit(ClusterEventType::TaskSuspended, t.job, t.id, status.node);
      }
      break;
  }
}

void JobTracker::task_terminal(Task& task, TaskState state) {
  // Close any suspend/resume span left open by a task that went terminal
  // mid-protocol (killed or failed between the request and the ack).
  if (task.state == TaskState::MustSuspend) {
    tracer_->async_end(trk_, "suspend", task.id.value(), {{"aborted", 1}});
  } else if (task.state == TaskState::MustResume) {
    tracer_->async_end(trk_, "resume", task.id.value(), {{"aborted", 1}});
  }
  OSAP_CHECK_MSG(!task.speculating(),
                 task.id << " went terminal with a backup attempt still bound");
  set_task_state(task, state);
  task.node = NodeId{};
  task.tracker = TrackerId{};
  task.attempt_started_at = -1;
  unsent_commands_.erase(task.id);
  // Keep attempt-only kill orders: they target a race-losing attempt
  // still dying on its tracker, and only its ack retires them. Orders for
  // the primary attempt are moot once the task leaves the live states.
  if (const auto it = must_kill_.find(task.id); it != must_kill_.end()) {
    std::erase_if(it->second, [](const KillOrder& order) { return !order.attempt_only; });
    if (it->second.empty()) must_kill_.erase(it);
  }
}

void JobTracker::task_succeeded(Task& t, NodeId node) {
  set_task_progress(t, 1.0);
  t.completed_at = sim_.now();
  task_terminal(t, TaskState::Succeeded);
  // Map output is served from the worker's local disk (Hadoop 1 shuffle);
  // remember where it lives so losing the node re-runs the map.
  t.completed_node = node;
  emit(ClusterEventType::TaskSucceeded, t.job, t.id, node);
  Job& job = job_ref(t.job);
  ++job.tasks_completed;
  if (t.spec.type == TaskType::Map) maybe_release_reduces(t.job);
  maybe_complete_job(t.job);
}

void JobTracker::clear_speculative(Task& task) {
  if (task.spec_tracker.valid()) --job_ref(task.job).speculating;
  task.spec_tracker = TrackerId{};
  task.spec_node = NodeId{};
  task.spec_progress = 0;
  task.spec_started_at = -1;
}

void JobTracker::promote_speculative(Task& task) {
  OSAP_CHECK_MSG(task.speculating(), task.id << " promoted without a backup attempt");
  // Close any suspend/resume protocol left open on the vanishing primary.
  if (task.state == TaskState::MustSuspend) {
    tracer_->async_end(trk_, "suspend", task.id.value(), {{"aborted", 1}});
  } else if (task.state == TaskState::MustResume) {
    tracer_->async_end(trk_, "resume", task.id.value(), {{"aborted", 1}});
  }
  set_task_state(task, TaskState::Running);
  task.tracker = task.spec_tracker;
  task.node = task.spec_node;
  set_task_progress(task, task.spec_progress);
  task.attempt_started_at = task.spec_started_at;
  // A new start moves the attempt's ETA line even when the progress
  // write above was a no-op: the straggler bound must be recomputed.
  set_spec_next_check(job_ref(task.job), 0);
  task.checkpointed = false;
  task.use_checkpoint = false;
  unsent_commands_.erase(task.id);
  clear_speculative(task);
  tracer_->instant(trk_, "speculation_promoted", {{"task", task.id.value()}});
  emit(ClusterEventType::SpeculationPromoted, task.job, task.id, task.node);
}

bool JobTracker::maps_pending(const Job& job) const {
  return job.maps_not_succeeded > 0;
}

void JobTracker::maybe_release_reduces(JobId id) {
  const Job& job = job_ref(id);
  if (maps_pending(job)) return;
  // Live tasks only can hold the barrier; the set iterates in ascending
  // task id, the same order the old full walk of job.tasks visited them.
  for (TaskId tid : job.live) {
    const Task& t = tasks_[tid.value()];
    if (t.spec.type != TaskType::Reduce || !t.spec.wait_for_maps) continue;
    if (!t.tracker.valid()) continue;
    // Span from "last map succeeded" to the TaskTracker applying the
    // release — the latency the out-of-band push exists to cut. Opened
    // once per task even when a racing copy gets its own release.
    tracer_->async_begin(shuffle_trk_, "maps_done_delivery", tid.value(),
                         {{"task", tid.value()}});
    // A racing reduce holds the shuffle barrier in *both* attempts;
    // release each through its own tracker.
    for (const auto& [target, node] :
         {std::pair{t.tracker, t.node}, std::pair{t.spec_tracker, t.spec_node}}) {
      if (!target.valid()) continue;
      TaskTracker* tt = tracker(target);
      OSAP_CHECK_MSG(tt != nullptr, tid << " is bound to unregistered " << target);
      // The release goes out at once, one network hop, through
      // deliver_actions rather than on_response, so it never consumes the
      // tracker's heartbeat round-trip bookkeeping.
      ctr_oob_maps_done_->add();
      ctr_actions_->add();
      HeartbeatResponse push;
      push.actions.push_back(TaskAction{ActionKind::MapsDone, tid, {}});
      net_.send(master_, node, [tt, push = std::move(push)]() mutable {
        tt->deliver_actions(std::move(push));
      });
    }
  }
}

void JobTracker::maybe_speculate(const TrackerStatus& status, int free_maps, int free_reduces,
                                 HeartbeatResponse& response) {
  if (!cfg_.speculative_execution) return;
  if (free_maps <= 0 && free_reduces <= 0) return;
  // Move the wheel filings that came due. A filing is live only while its
  // job runs and still holds the bound it was filed under; the rest are
  // stale refilings, dropped here.
  const SimTime now = sim_.now();
  while (!spec_wheel_.empty() && spec_wheel_.front().at <= now) {
    const SpecFiling due = spec_wheel_.front();
    std::pop_heap(spec_wheel_.begin(), spec_wheel_.end(), SpecFiling::later);
    spec_wheel_.pop_back();
    const Job& job = jobs_[due.job.value()];
    if (job.state == JobState::Running && job.spec_next_check == due.at) {
      spec_due_.insert(due.job);
    }
  }
  spec_drained_at_ = now;
  // The due set now holds exactly the running jobs whose bound is <= now,
  // in ascending id; a job with a future bound provably launches nothing
  // this heartbeat, so skipping it has no effect (docs/PERF.md).
  std::uint64_t scanned = 0;
  for (std::size_t i = 0; i < spec_due_.size();) {
    if (free_maps <= 0 && free_reduces <= 0) break;
    const JobId jid = spec_due_[i];
    Job& job = jobs_[jid.value()];
    // Per-job budget of concurrently racing copies — a maintained count,
    // not a scan.
    if (job.speculating < cfg_.speculative_cap) {
      scanned += speculate_job(job, status, free_maps, free_reduces, response);
    }
    // A scan that refiled the job to a future bound took it out of the
    // due set, which moved its successor into position i.
    if (i < spec_due_.size() && spec_due_[i] == jid) ++i;
  }
  sim_.trace().profiler().add(trace::HotPath::SpeculationScan, scanned);
}

std::uint64_t JobTracker::speculate_job(Job& job, const TrackerStatus& status, int& free_maps,
                                        int& free_reduces, HeartbeatResponse& response) {
  const SimTime now = sim_.now();
  std::uint64_t scanned = 0;
  // Between mutations of its attempt set, a job's ETAs are known linear
  // functions of time, so the previous scan computed the earliest moment
  // the slowness threshold could next be crossed and filed the job on the
  // wheel until then — before that, a scan provably launches nothing.
  // Estimate time-to-completion for every attempt old enough to judge.
  // ETA = remaining work / observed rate = (1-p) * elapsed / p; a stuck
  // attempt (p ≈ 0) estimates infinite. The job mean is taken over the
  // finite estimates only — with no trustworthy baseline (e.g. every
  // attempt just launched, or a single stuck task) nothing speculates.
  // Only live attempts are inspected: the job's live-task index, in
  // ascending task id, is exactly the old filtered walk of job.tasks.
  double eta_sum = 0;
  double eta_max = 0;
  int eta_count = 0;
  // Linear ETA model per judged attempt j: eta_j(t) = k_j * (t - s_j)
  // with k = (1-p)/p, aggregated as K = sum k and B = sum k*s so the
  // future threshold test n*eta_j(t) > S*(K*t - B) solves in closed
  // form below.
  double k_total = 0;
  double ks_total = 0;
  SimTime next_join = kTimeNever;  // earliest min-runtime graduation
  spec_scratch_.clear();  // candidates, in ascending task-id order
  for (TaskId tid : job.live) {
    const Task& t = tasks_[tid.value()];
    if (t.attempt_started_at < 0) continue;
    const Duration elapsed = now - t.attempt_started_at;
    if (elapsed < cfg_.speculative_min_runtime) {
      // Exact graduation instant: the first representable time at which
      // the (t - s < R) youth test above flips. s + R can round below
      // it (heartbeat-aligned starts resonate with R), which would pin
      // the bound at `now` for a whole synchronized-heartbeat round.
      SimTime join = t.attempt_started_at + cfg_.speculative_min_runtime;
      while (join - t.attempt_started_at < cfg_.speculative_min_runtime) {
        join = std::nextafter(join, kTimeNever);
      }
      next_join = std::min(next_join, join);
      continue;
    }
    ++scanned;
    double eta;
    if (t.progress > 1e-9) {
      eta = (1.0 - t.progress) * static_cast<double>(elapsed) / t.progress;
      eta_sum += eta;
      ++eta_count;
      const double k = (1.0 - t.progress) / t.progress;
      k_total += k;
      ks_total += k * t.attempt_started_at;
    } else {
      eta = std::numeric_limits<double>::infinity();
    }
    if (eta > eta_max) eta_max = eta;
    spec_scratch_.emplace_back(tid, eta);
  }
  if (eta_count == 0) {
    // No trustworthy baseline; one can only appear when a young attempt
    // graduates past min-runtime (or a mutation resets the cache).
    set_spec_next_check(job, next_join);
    return scanned;
  }
  const double mean = eta_sum / eta_count;
  // If even the slowest attempt clears the threshold, the launch pass
  // below cannot trigger — skip it (an infinite ETA always exceeds).
  if (eta_max <= cfg_.speculative_slowness * mean) {
    // All judged ETAs are finite here (an infinite one would be
    // eta_max). n*eta_j(t) - S*sum(eta_i(t)) is a max of linear
    // functions of t: convex, currently <= 0, so it crosses zero at
    // most once — at the earliest crossing among attempts whose ETA
    // outgrows the threshold line (slope test d > 0). Graduations
    // re-shape the set, so the bound is also capped at the next one;
    // everything else that moves an ETA goes through a choke point
    // that resets the cache.
    const double S = cfg_.speculative_slowness;
    const double n = eta_count;
    SimTime cross = kTimeNever;
    for (const auto& [tid, eta] : spec_scratch_) {
      const Task& t = tasks_[tid.value()];
      const double k = (1.0 - t.progress) / t.progress;
      const double d = n * k - S * k_total;
      if (d <= 0) continue;
      cross = std::min(cross, (n * k * t.attempt_started_at - S * ks_total) / d);
    }
    // Conservative margin on the solved crossing: rescanning a hair
    // early is free (the scan stays authoritative), skipping past a
    // real crossing is not. The graduation bound is exact — no margin.
    if (cross < kTimeNever) cross -= 1e-6 * std::max(1.0, std::abs(cross));
    const SimTime bound = std::min(next_join, cross);
    set_spec_next_check(job, bound > now ? bound : 0);
    return scanned;
  }
  set_spec_next_check(job, 0);
  // Candidates are scanned in ascending task id, which breaks ETA ties
  // deterministically.
  for (const auto& [tid, eta] : spec_scratch_) {
    if (free_maps <= 0 && free_reduces <= 0) break;
    if (job.speculating >= cfg_.speculative_cap) break;
    if (eta <= cfg_.speculative_slowness * mean) continue;
    Task& t = tasks_[tid.value()];
    if (t.speculating()) continue;
    if (t.tracker == status.tracker) continue;  // never race on the same tracker
    if (kill_pending_on(tid, status.tracker)) continue;  // old attempt still dying here
    // The primary is being killed (e.g. resume locality gave up on a
    // parked attempt): its ack requeues the task, which must not have a
    // copy bound by then.
    if (kill_pending_on(tid, t.tracker)) continue;
    int& slots = t.spec.type == TaskType::Map ? free_maps : free_reduces;
    if (slots <= 0) continue;
    --slots;
    ++job.speculating;
    t.spec_tracker = status.tracker;
    t.spec_node = status.node;
    t.spec_progress = 0;
    t.spec_started_at = sim_.now();
    ++t.attempts_started;
    ++t.attempts_speculative;
    // The copy starts from scratch: checkpoint files are node-local to
    // the original's node, so no fast-forward. Barrier semantics
    // (wait_for_maps) are inherited from the primary so both attempts
    // are released together.
    TaskSpec copy = t.spec;
    copy.checkpoint_progress = 0;
    copy.checkpoint_state = 0;
    response.actions.push_back(TaskAction{ActionKind::Launch, tid, std::move(copy)});
    ctr_spec_launched_->add();
    tracer_->instant(sched_trk_, "speculate",
                     {{"task", tid.value()}, {"tracker", status.tracker.value()}});
    emit(ClusterEventType::TaskSpeculated, t.job, tid, status.node);
    OSAP_LOG(Info, kLog) << "speculating " << tid << " on " << status.tracker
                         << " (eta " << eta << "s vs job mean " << mean << "s)";
  }
  return scanned;
}

void JobTracker::reset_attempt_state(Task& task) {
  // Everything here is per-attempt: leaking it into the successor attempt
  // double-counts paging, resurrects stale checkpoint/suspend intents, or
  // (completed_at) makes a requeued task look finished. The durable
  // checkpoint inputs (spec.checkpoint_progress / checkpoint_state /
  // checkpoint_node) survive on disk across attempts and are cleared only
  // by an explicit kill or a checkpoint disk loss.
  set_task_progress(task, 0);
  task.checkpointed = false;
  task.use_checkpoint = false;
  task.swapped_out = 0;
  task.swapped_in = 0;
  task.completed_at = -1;
  task.completed_node = NodeId{};
  task.attempt_started_at = -1;
}

void JobTracker::check_leases() {
  // Judge every lease before declaring any tracker lost: the slots are
  // already in ascending id order.
  std::vector<TrackerId> expired;
  for (const TrackerSlot& s : tracker_slots_) {
    if (!s.lost && s.last_heartbeat + cfg_.tracker_expiry <= sim_.now()) expired.push_back(s.id);
  }
  for (TrackerId id : expired) declare_lost(id);
  lease_timer_ = sim_.after(cfg_.expiry_check_interval, [this] { check_leases(); });
}

void JobTracker::declare_lost(TrackerId id) {
  TrackerSlot* s = slot(id);
  OSAP_CHECK_MSG(s != nullptr, "declaring unknown " << id << " lost");
  const NodeId node = s->tracker->node();
  s->lost = true;
  s->draining = false;  // the drain window ends with the node
  ctr_trackers_lost_->add();
  tracer_->instant(trk_, "tracker_lost", {{"tracker", id.value()}});
  OSAP_LOG(Warn, kLog) << id << " lease expired at t=" << sim_.now() << ", declared lost";
  emit(ClusterEventType::TrackerLost, JobId{}, TaskId{}, node);

  // Kill orders addressed to the dead tracker can never be acked.
  for (auto it = must_kill_.begin(); it != must_kill_.end();) {
    std::erase_if(it->second, [id](const KillOrder& order) { return order.tracker == id; });
    it = it->second.empty() ? must_kill_.erase(it) : std::next(it);
  }

  // Forfeit racing backup attempts hosted on the dead tracker: the race
  // dissolves and the primary attempt carries on, budget untouched.
  // (Tracker loss is rare, so these remain full sweeps — the deque walks
  // tasks in ascending id.)
  for (Task& t : tasks_) {
    if (t.spec_tracker != id) continue;
    ctr_spec_lost_->add();
    emit(ClusterEventType::SpeculationLost, t.job, t.id, node);
    clear_speculative(t);
  }

  // Forfeit every attempt bound to the tracker — running *and* suspended:
  // a SIGTSTP-parked JVM dies with its node, so the suspended attempt's
  // work is gone and the task restarts from scratch elsewhere. Loss does
  // not charge the attempt budget (Hadoop's killed-vs-failed split). A
  // task with a surviving backup copy adopts it instead of requeueing.
  for (Task& t : tasks_) {
    if (t.tracker != id || !t.live()) continue;
    ctr_tasks_lost_->add();
    emit(ClusterEventType::TaskLost, t.job, t.id, t.node);
    if (t.speculating()) {
      promote_speculative(t);
      continue;
    }
    task_terminal(t, TaskState::Unassigned);
    reset_attempt_state(t);
  }

  // Re-run Succeeded maps whose output lived on the dead node: Hadoop 1
  // reduces fetch map output from the worker's local disk, so the outputs
  // died with it and shuffling reduces would wait forever.
  for (Task& t : tasks_) {
    if (t.state != TaskState::Succeeded || t.spec.type != TaskType::Map) continue;
    if (t.completed_node != node) continue;
    if (jobs_[t.job.value()].state != JobState::Running) continue;
    ctr_map_outputs_lost_->add();
    emit(ClusterEventType::MapOutputLost, t.job, t.id, node);
    set_task_state(t, TaskState::Unassigned);
    reset_attempt_state(t);
    --jobs_[t.job.value()].tasks_completed;
  }

  // Checkpoint files on the node's disk are gone too.
  lose_checkpoints_on(node);
  maybe_fail_cluster();
}

void JobTracker::lose_checkpoints_on(NodeId node) {
  for (Task& t : tasks_) {
    if (t.checkpoint_node != node) continue;
    ctr_checkpoints_lost_->add();
    t.spec.checkpoint_progress = 0;
    t.spec.checkpoint_state = 0;
    t.checkpoint_node = NodeId{};
    if (t.state == TaskState::Suspended && t.checkpointed) {
      // Parked on the lost checkpoint: nothing to resume, requeue from
      // scratch — unless a backup copy is racing, which becomes the
      // attempt.
      ctr_tasks_lost_->add();
      emit(ClusterEventType::TaskLost, t.job, t.id, node);
      t.checkpointed = false;
      if (t.speculating()) {
        promote_speculative(t);
        continue;
      }
      task_terminal(t, TaskState::Unassigned);
      reset_attempt_state(t);
    }
  }
}

bool JobTracker::warn_revocation(TrackerId id) {
  TrackerSlot* s = slot(id);
  // Out-of-order plans deliver warnings for nodes that already died (or
  // were never registered); the drain is simply moot then.
  if (s == nullptr || s->lost || s->draining) return false;
  s->draining = true;
  ctr_trackers_draining_->add();
  tracer_->instant(trk_, trace::names::kInstRevocationWarning, {{"tracker", id.value()}});
  OSAP_LOG(Warn, kLog) << id << " revocation warning at t=" << sim_.now() << ", draining";
  emit(ClusterEventType::NodeRevocationWarned, JobId{}, TaskId{}, s->tracker->node());
  return true;
}

bool JobTracker::evacuate_checkpoint(TaskId id, NodeId target) {
  Task& t = task_mutable(id);
  if (t.state != TaskState::Suspended || !t.checkpointed) return false;
  if (!target.valid() || t.checkpoint_node == target) return false;
  // The serialized state now lives on `target`: losing the doomed node no
  // longer voids the fast-forward, and a later disk loss on `target` does.
  t.checkpoint_node = target;
  ctr_checkpoints_evacuated_->add();
  tracer_->instant(trk_, trace::names::kInstCheckpointEvacuated,
                   {{"task", id.value()}, {"node", target.value()}});
  return true;
}

void JobTracker::fail_job(JobId id, TaskId cause, NodeId node) {
  Job& job = job_ref(id);
  if (job.state != JobState::Running) return;
  job.state = JobState::Failed;
  running_jobs_.erase(id);
  reindex_job(job);
  job.completed_at = sim_.now();
  ctr_jobs_failed_->add();
  // Reap the job's surviving attempts; the scheduler skips non-Running
  // jobs, so nothing relaunches. Snapshot the live index: kill_task
  // retires a checkpoint-parked task immediately, mutating the set.
  const std::vector<TaskId> live(job.live.begin(), job.live.end());
  for (TaskId tid : live) {
    if (tasks_[tid.value()].live()) kill_task(tid);
  }
  tracer_->async_end(trk_, "job", id.value(), {{"failed", 1}});
  OSAP_LOG(Warn, kLog) << "job " << id << " FAILED at t=" << sim_.now();
  emit(ClusterEventType::JobFailed, id, cause, node);
  if (scheduler_ != nullptr) scheduler_->job_completed(id);
}

void JobTracker::note_tracker_failure(TrackerId id, NodeId node) {
  if (cfg_.tracker_blacklist_failures <= 0) return;
  TrackerSlot* s = slot(id);
  OSAP_CHECK_MSG(s != nullptr, "attempt failure on unknown " << id);
  const int failures = ++s->failures;
  if (failures < cfg_.tracker_blacklist_failures || s->blacklisted) return;
  s->blacklisted = true;
  ctr_trackers_blacklisted_->add();
  tracer_->instant(trk_, "tracker_blacklisted", {{"tracker", id.value()}});
  OSAP_LOG(Warn, kLog) << id << " blacklisted after " << failures << " attempt failures";
  emit(ClusterEventType::TrackerBlacklisted, JobId{}, TaskId{}, node);
  maybe_fail_cluster();
}

void JobTracker::maybe_fail_cluster() {
  if (tracker_slots_.empty()) return;
  for (const TrackerSlot& s : tracker_slots_) {
    if (!s.lost && !s.blacklisted) return;
  }
  // No tracker left to run anything: every Running job fails now rather
  // than waiting on heartbeats that cannot come. Snapshot: fail_job
  // shrinks the running set as it goes.
  const std::vector<JobId> running(running_jobs_.begin(), running_jobs_.end());
  for (JobId jid : running) fail_job(jid, TaskId{}, NodeId{});
}

void JobTracker::maybe_complete_job(JobId id) {
  Job& job = job_ref(id);
  if (job.state != JobState::Running) return;
  if (job.tasks_completed < static_cast<int>(job.tasks.size())) return;
  job.state = JobState::Succeeded;
  running_jobs_.erase(id);
  reindex_job(job);
  job.completed_at = sim_.now();
  tracer_->async_end(trk_, "job", id.value(),
                     {{"tasks", static_cast<std::uint64_t>(job.tasks.size())}});
  OSAP_LOG(Info, kLog) << "job " << id << " completed, sojourn " << job.sojourn() << "s";
  emit(ClusterEventType::JobCompleted, id, TaskId{}, NodeId{});
  if (scheduler_ != nullptr) scheduler_->job_completed(id);
}

void JobTracker::on_heartbeat(TrackerStatus status) {
  TrackerSlot* s = slot(status.tracker);
  OSAP_LOG(Debug, kLog) << "heartbeat from " << status.tracker << " (" << status.reports.size()
                        << " reports, " << status.free_map_slots << " free map slots)";
  if (s == nullptr) return;
  TaskTracker* tt = s->tracker;
  ctr_heartbeats_->add();
  sim_.trace().profiler().add(trace::HotPath::HeartbeatHandle, status.reports.size());

  if (s->lost) {
    // The tracker was expired while actually alive (a heartbeat-loss
    // window or a daemon hang). Everything it hosted has already been
    // requeued, so its reports describe attempts we forfeited: skip them
    // and order a clean-slate reinitialization — Hadoop 1's answer to a
    // tracker that heartbeats after being declared lost.
    s->lost = false;
    s->draining = false;  // any pre-death warning is void after the rejoin
    s->last_heartbeat = sim_.now();
    ctr_tracker_reinits_->add();
    tracer_->instant(trk_, "tracker_reinit", {{"tracker", status.tracker.value()}});
    OSAP_LOG(Warn, kLog) << status.tracker << " rejoined after expiry, reinitializing";
    HeartbeatResponse reinit;
    reinit.actions.push_back(TaskAction{ActionKind::ReinitTracker, TaskId{}, {}});
    ctr_actions_->add();
    net_.send(master_, status.node, [tt, reinit = std::move(reinit)]() mutable {
      tt->on_response(std::move(reinit));
    });
    return;
  }
  s->last_heartbeat = sim_.now();

  for (const TaskStatusReport& report : status.reports) apply_report(status, report);

  HeartbeatResponse response;

  // Piggyback pending kill / suspend / resume commands addressed to this
  // tracker (§III-B).
  // Action order inside one response is tracker-visible (the TaskTracker
  // applies them in sequence); the pending-command maps are ordered, so
  // plain iteration walks them in task-id order.
  for (auto& [tid, orders] : must_kill_) {
    for (KillOrder& order : orders) {
      if (order.sent || order.tracker != status.tracker) continue;
      response.actions.push_back(TaskAction{ActionKind::Kill, tid, {}});
      order.sent = true;
    }
  }
  // A sent command leaves the set, and the next id slides into position i.
  for (std::size_t i = 0; i < unsent_commands_.size();) {
    const TaskId tid = unsent_commands_[i];
    const Task& t = tasks_[tid.value()];
    const bool here = t.tracker == status.tracker;
    if (here && t.state == TaskState::MustSuspend) {
      response.actions.push_back(TaskAction{
          t.use_checkpoint ? ActionKind::CheckpointSuspend : ActionKind::Suspend, tid, {}});
    } else if (here && t.state == TaskState::MustResume) {
      response.actions.push_back(TaskAction{ActionKind::Resume, tid, {}});
    } else {
      ++i;
      continue;
    }
    unsent_commands_.erase(tid);
  }

  // Ask the scheduler for work for the free slots. Blacklisted and
  // revocation-draining trackers still heartbeat (their in-flight acks
  // matter) but get no new work.
  if (scheduler_ != nullptr && !s->blacklisted && !s->draining) {
    int free_maps = status.free_map_slots;
    int free_reduces = status.free_reduce_slots;
    const std::vector<TaskId> assigned = scheduler_->assign(status);
    sim_.trace().profiler().add(trace::HotPath::SchedulerAssign, assigned.size());
    for (TaskId tid : assigned) {
      Task& t = tasks_[tid.value()];
      OSAP_CHECK_MSG(t.state == TaskState::Unassigned,
                     "scheduler assigned " << tid << " in state " << to_string(t.state));
      // A race-losing attempt of this very task may still be dying on the
      // tracker (kill order in flight): launching there would collide
      // with it, so leave the task pooled for a later heartbeat.
      if (kill_pending_on(tid, status.tracker)) continue;
      set_task_state(t, TaskState::Running);
      t.node = status.node;
      t.tracker = status.tracker;
      ++t.attempts_started;
      t.attempt_started_at = sim_.now();
      if (t.first_launched_at < 0) t.first_launched_at = sim_.now();
      if (t.spec.type == TaskType::Reduce) {
        // Stamp the barrier flag per attempt: a reduce launched while maps
        // still run must block after its shuffle until MapsDone arrives.
        t.spec.wait_for_maps = maps_pending(jobs_[t.job.value()]);
      }
      --(t.spec.type == TaskType::Map ? free_maps : free_reduces);
      TaskAction action{ActionKind::Launch, tid, t.spec};
      response.actions.push_back(std::move(action));
      ctr_assignments_->add();
      tracer_->instant(sched_trk_, "assign",
                       {{"task", tid.value()}, {"tracker", status.tracker.value()}});
      emit(ClusterEventType::TaskLaunched, t.job, tid, status.node);
    }
    // Straggler detection fills whatever slots the scheduler left over.
    maybe_speculate(status, free_maps, free_reduces, response);
  }
  ctr_actions_->add(response.actions.size());

  // Every heartbeat gets a response, even an empty one.
  net_.send(master_, status.node, [tt, response = std::move(response)]() mutable {
    tt->on_response(std::move(response));
  });
}

const Job& JobTracker::job(JobId id) const {
  OSAP_CHECK_MSG(id.value() < jobs_.size(), "unknown " << id);
  return jobs_[id.value()];
}

const Task& JobTracker::task(TaskId id) const {
  OSAP_CHECK_MSG(id.value() < tasks_.size(), "unknown " << id);
  return tasks_[id.value()];
}

Task& JobTracker::task_mutable(TaskId id) {
  OSAP_CHECK_MSG(id.value() < tasks_.size(), "unknown " << id);
  return tasks_[id.value()];
}

bool JobTracker::all_jobs_done() const {
  return running_jobs_.empty();
}

void JobTracker::audit(std::vector<std::string>& violations) const {
  const auto flag = [&violations](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    violations.push_back(os.str());
  };
  for (const Task& t : tasks_) {
    const TaskId tid = t.id;
    if (t.progress < -1e-9 || t.progress > 1.0 + 1e-9) {
      flag(tid, " progress ", t.progress, " out of [0,1]");
    }
    const bool bound = t.tracker.valid();
    const bool checkpoint_parked = t.state == TaskState::Suspended && t.checkpointed;
    if (t.live() && !checkpoint_parked && !bound) {
      flag(tid, " is ", to_string(t.state), " but bound to no tracker");
    }
    if (!t.live() && bound) {
      flag(tid, " is ", to_string(t.state), " but still bound to ", t.tracker);
    }
    if (checkpoint_parked && bound) {
      flag(tid, " is checkpoint-suspended but still bound to ", t.tracker);
    }
    if (bound && slot(t.tracker) == nullptr) {
      flag(tid, " bound to unregistered ", t.tracker);
    }
    if (bound && tracker_lost(t.tracker)) {
      flag(tid, " still bound to lost ", t.tracker);
    }
    if (t.speculating()) {
      if (!t.live()) flag(tid, " is ", to_string(t.state), " but still has a backup attempt");
      if (t.spec_tracker == t.tracker) flag(tid, " races both attempts on ", t.tracker);
      if (slot(t.spec_tracker) == nullptr) {
        flag(tid, " backup attempt on unregistered ", t.spec_tracker);
      }
      if (tracker_lost(t.spec_tracker)) {
        flag(tid, " backup attempt still on lost ", t.spec_tracker);
      }
      if (t.spec_started_at < 0) flag(tid, " backup attempt without a launch time");
    }
    if (t.attempts_failed < 0 ||
        (cfg_.max_task_attempts > 0 && t.attempts_failed > cfg_.max_task_attempts)) {
      flag(tid, " has ", t.attempts_failed, " failed attempts (cap ",
           cfg_.max_task_attempts, ")");
    }
    if (t.state == TaskState::Failed && jobs_[t.job.value()].state != JobState::Failed) {
      flag(tid, " is Failed but its ", t.job, " is ",
           jobs_[t.job.value()].state == JobState::Running ? "Running" : "not Failed");
    }
  }
  // Speculation agenda: the due set holds only Running jobs whose bound
  // has come, and every Running job with a finite bound is due or holds a
  // live wheel filing (one that came due waits there for the next drain).
  const SimTime now = sim_.now();
  std::set<std::pair<SimTime, JobId>> filed;
  for (const SpecFiling& f : spec_wheel_) {
    filed.emplace(f.at, f.job);
    if (f.job.value() >= jobs_.size()) {
      flag("speculation wheel files unknown ", f.job);
      continue;
    }
    const Job& job = jobs_[f.job.value()];
    if (job.state == JobState::Running && job.spec_next_check == f.at &&
        f.at <= spec_drained_at_) {
      flag(f.job, " filed in the speculation wheel at t=", f.at,
           " but the drain at t=", spec_drained_at_, " left it there");
    }
  }
  if (!cfg_.speculative_execution && !filed.empty()) {
    flag("speculation is off but the agenda wheel holds ", filed.size(), " filings");
  }
  for (JobId jid : spec_due_) {
    if (jid.value() >= jobs_.size()) {
      flag("speculation agenda holds unknown ", jid);
    } else if (!cfg_.speculative_execution || jobs_[jid.value()].state != JobState::Running) {
      flag(jid, " is due a straggler scan but is not a running job under speculation");
    } else if (jobs_[jid.value()].spec_next_check > now) {
      flag(jid, " is due a straggler scan with a future bound t=",
           jobs_[jid.value()].spec_next_check);
    }
  }
  FlatIdSet<JobId> with_suspended;
  for (TaskId tid : unsent_commands_) {
    if (tid.value() >= tasks_.size()) {
      flag("suspend/resume command addressed to unknown ", tid);
    } else if (!tasks_[tid.value()].live()) {
      flag("suspend/resume command pending for ", tid, " in terminal state ",
           to_string(tasks_[tid.value()].state));
    }
  }
  // Kill orders get their own rules: an attempt-only order may outlive the
  // task's live states (it tracks a dying race loser), but every order
  // must target a registered, non-lost tracker, at most once per tracker.
  for (const auto& [tid, orders] : must_kill_) {
    if (tid.value() >= tasks_.size()) {
      flag("kill command addressed to unknown ", tid);
      continue;
    }
    const Task& t = tasks_[tid.value()];
    if (orders.empty()) flag("empty kill-order list for ", tid);
    for (std::size_t i = 0; i < orders.size(); ++i) {
      const KillOrder& order = orders[i];
      if (!order.attempt_only && !t.live()) {
        flag("kill command pending for ", tid, " in terminal state ", to_string(t.state));
      }
      if (slot(order.tracker) == nullptr) {
        flag("kill order for ", tid, " targets unregistered ", order.tracker);
      }
      if (tracker_lost(order.tracker)) {
        flag("kill order for ", tid, " targets lost ", order.tracker);
      }
      for (std::size_t j = i + 1; j < orders.size(); ++j) {
        if (orders[j].tracker == order.tracker) {
          flag("duplicate kill orders for ", tid, " on ", order.tracker);
        }
      }
    }
  }
  for (JobId jid : job_order_) {
    const Job& job = jobs_[jid.value()];
    // Recompute the incremental indexes from the ground truth (task
    // states) — the choke point must have kept them exact.
    FlatIdSet<TaskId> unassigned;
    FlatIdSet<TaskId> live;
    FlatIdSet<TaskId> suspended;
    FlatIdSet<TaskId> not_done;
    int speculating = 0;
    int maps_not_succeeded = 0;
    int succeeded = 0;
    Bytes remaining_bytes = 0;
    for (TaskId tid : job.tasks) {
      const Task& t = tasks_[tid.value()];
      if (t.state == TaskState::Succeeded) ++succeeded;
      if (t.state == TaskState::Unassigned) unassigned.insert(tid);
      if (t.live()) live.insert(tid);
      if (t.state == TaskState::Suspended) suspended.insert(tid);
      if (!t.done()) not_done.insert(tid);
      if (t.speculating()) ++speculating;
      if (t.spec.type == TaskType::Map && t.state != TaskState::Succeeded) {
        ++maps_not_succeeded;
      }
      remaining_bytes += remaining_contrib(t);
    }
    if (unassigned != job.unassigned) flag(jid, " unassigned-task index out of sync");
    if (live != job.live) flag(jid, " live-task index out of sync");
    if (suspended != job.suspended) flag(jid, " suspended-task index out of sync");
    if (!suspended.empty()) with_suspended.insert(jid);
    if (cfg_.speculative_execution && job.state == JobState::Running &&
        job.spec_next_check < kTimeNever && !spec_due_.contains(jid) &&
        !filed.contains({job.spec_next_check, jid})) {
      flag(jid, " has straggler-scan bound t=", job.spec_next_check,
           " but is on no speculation agenda");
    }
    if (not_done != job.not_done) flag(jid, " not-done-task index out of sync");
    if (remaining_bytes != job.remaining_bytes) {
      flag(jid, " remaining-bytes total is ", job.remaining_bytes, " but tasks sum to ",
           remaining_bytes);
    }
    const bool should_file = job.state == JobState::Running && job.remaining_bytes != 0;
    const Bytes want_key = should_file ? job.remaining_bytes : 0;
    if (job.indexed_remaining != want_key) {
      flag(jid, " filed under remaining key ", job.indexed_remaining, ", expected ", want_key);
    }
    if (should_file && !jobs_by_remaining_.contains({job.remaining_bytes, jid})) {
      flag(jid, " missing from the jobs-by-remaining index");
    }
    const bool should_schedule = job.state == JobState::Running && !job.unassigned.empty();
    if (schedulable_jobs_.contains(jid) != should_schedule) {
      flag(jid, should_schedule ? " missing from" : " stale in", " the schedulable-jobs index");
    }
    if (speculating != job.speculating) {
      flag(jid, " counts ", job.speculating, " racing copies but ", speculating, " are bound");
    }
    if (maps_not_succeeded != job.maps_not_succeeded) {
      flag(jid, " counts ", job.maps_not_succeeded, " pending maps but ", maps_not_succeeded,
           " are not SUCCEEDED");
    }
    if ((job.state == JobState::Running) != running_jobs_.contains(jid)) {
      flag(jid, " running-set membership disagrees with its state");
    }
    if (job.tasks_completed != succeeded) {
      flag(jid, " counts ", job.tasks_completed, " completed tasks but ", succeeded,
           " have SUCCEEDED");
    }
    if (job.state == JobState::Succeeded && succeeded != static_cast<int>(job.tasks.size())) {
      flag(jid, " marked Succeeded with only ", succeeded, "/", job.tasks.size(),
           " tasks done");
    }
    if (job.state == JobState::Failed && job.completed_at < 0) {
      flag(jid, " marked Failed without a completion time");
    }
  }
  if (with_suspended != jobs_with_suspended_) flag("jobs-with-suspended index out of sync");
}

void JobTracker::dump(std::ostream& os) const {
  os << jobs_.size() << " jobs, " << tasks_.size() << " tasks; pending commands: "
     << unsent_commands_.size() << " susp/res, " << must_kill_.size() << " kill; "
     << jobs_with_suspended_.size() << " jobs with parked tasks; speculation agenda: "
     << spec_due_.size() << " due, " << spec_wheel_.size() << " wheel filings\n";
  std::vector<TrackerId> lost;
  std::vector<TrackerId> blacklisted;
  for (const TrackerSlot& s : tracker_slots_) {
    if (s.lost) lost.push_back(s.id);
    if (s.blacklisted) blacklisted.push_back(s.id);
  }
  if (!lost.empty() || !blacklisted.empty()) {
    std::sort(lost.begin(), lost.end());
    std::sort(blacklisted.begin(), blacklisted.end());
    os << "  trackers:";
    for (TrackerId id : lost) os << ' ' << id << "[lost]";
    for (TrackerId id : blacklisted) os << ' ' << id << "[blacklisted]";
    os << '\n';
  }
  for (JobId jid : job_order_) {
    const Job& job = jobs_[jid.value()];
    os << "  " << jid << " (" << job.spec.name << ") " << job.tasks_completed << "/"
       << job.tasks.size() << " done\n";
    for (TaskId tid : job.tasks) {
      const Task& t = tasks_[tid.value()];
      os << "    " << tid << ' ' << std::setw(9) << to_string(t.spec.type) << ' '
         << std::setw(12) << to_string(t.state) << " progress="
         << std::fixed << std::setprecision(2) << t.progress;
      if (t.tracker.valid()) os << " on " << t.tracker;
      if (t.checkpointed) os << " [checkpointed]";
      if (t.speculating()) {
        os << " [copy on " << t.spec_tracker << " progress=" << std::fixed
           << std::setprecision(2) << t.spec_progress << "]";
      }
      os << '\n';
    }
  }
}

}  // namespace osap
