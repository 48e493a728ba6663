// JobTracker: central job/task state and the preemption API.
//
// Mirrors Hadoop 1's JobTracker, extended exactly as §III-B describes:
// new task states (MUST_SUSPEND / SUSPENDED / MUST_RESUME) and new
// messages piggybacked on heartbeat responses. The suspend flow is
//
//   suspend_task()  ->  task MUST_SUSPEND
//   next heartbeat  ->  SuspendAction piggybacked to the TaskTracker
//   following heartbeat -> "suspended" ack (or "completed in the
//   meanwhile"), task becomes SUSPENDED
//
// and symmetrically for resume. The same API serves command-line users
// and schedulers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/flat_set.hpp"
#include "common/ids.hpp"
#include "hadoop/config.hpp"
#include "hadoop/events.hpp"
#include "hadoop/heartbeat.hpp"
#include "hadoop/job.hpp"
#include "hadoop/protocol_audit.hpp"
#include "hadoop/scheduler.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace osap {

class TaskTracker;

class JobTracker final : public InvariantAuditor {
 public:
  JobTracker(Simulation& sim, Network& net, NodeId master, HadoopConfig cfg);
  ~JobTracker() override;
  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  void register_tracker(TaskTracker& tracker);
  void set_scheduler(Scheduler* scheduler);

  /// Observe cluster events (timelines, metrics, drivers). Hooks fire in
  /// registration order and live as long as the JobTracker.
  void add_event_hook(std::function<void(const ClusterEvent&)> hook) {
    event_hooks_.push_back(std::move(hook));
  }

  // --- job & task API ------------------------------------------------------
  JobId submit_job(JobSpec spec);

  /// Request suspension of a running task. Returns false if the task is
  /// not in a suspendable state.
  bool suspend_task(TaskId id);
  /// Natjam-style suspension: serialize state, kill the JVM. Resuming a
  /// checkpointed task relaunches it with fast-forward.
  bool checkpoint_suspend_task(TaskId id);
  /// Request resumption of a suspended task. Returns false if it is not
  /// Suspended or a kill is already queued for it.
  bool resume_task(TaskId id);
  /// Request the kill of a live task attempt; the task returns to the
  /// UNASSIGNED pool for rescheduling (losing its work). A racing backup
  /// attempt is reaped alongside the primary one.
  bool kill_task(TaskId id);
  /// Kill only the task's racing backup attempt, if any (budget-free, no
  /// task-state transition) — the lever for preempting a speculative copy
  /// without disturbing the original. Returns false when nothing races.
  bool kill_speculative(TaskId id);

  // --- failure model (docs/FAULTS.md) --------------------------------------
  /// The node's local disk lost its Natjam checkpoint files: forget every
  /// saved fast-forward state on it, requeueing checkpoint-parked tasks
  /// from scratch. Fault-injection entry point (a node crash does this
  /// implicitly through lease expiry).
  void lose_checkpoints_on(NodeId node);
  /// True once the heartbeat lease expired and the tracker was declared
  /// lost (cleared if it later heartbeats again and is reinitialized).
  [[nodiscard]] bool tracker_lost(TrackerId id) const {
    const TrackerSlot* s = slot(id);
    return s != nullptr && s->lost;
  }
  /// True once the tracker accumulated `tracker_blacklist_failures`
  /// unrequested attempt failures; blacklisted trackers get no new work.
  [[nodiscard]] bool tracker_blacklisted(TrackerId id) const {
    const TrackerSlot* s = slot(id);
    return s != nullptr && s->blacklisted;
  }

  // --- node revocation (docs/REVOKE.md) ------------------------------------
  /// A revocation warning landed for this tracker's node: mark it draining
  /// (no new work; in-flight acks still process) and emit
  /// NodeRevocationWarned. Returns false when the tracker is unknown,
  /// already lost or already draining — a warning arriving after its node
  /// died (out-of-order plan) is a counted no-op, never a wedge.
  bool warn_revocation(TrackerId id);
  /// Natjam checkpoint evacuation: rebind a checkpoint-parked task's saved
  /// fast-forward state to `target` (modeling the upload of its checkpoint
  /// files off the doomed node before it dies). Returns false unless the
  /// task is parked with a checkpoint and `target` differs.
  bool evacuate_checkpoint(TaskId id, NodeId target);

  // --- heartbeat entry point (via network) ---------------------------------
  void on_heartbeat(TrackerStatus status);

  // --- views ----------------------------------------------------------------
  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] Task& task_mutable(TaskId id);

  /// Replace a task's spec (e.g. Requeue dropping its locality pin).
  /// Goes through the tracker so the job's remaining-bytes total follows
  /// the new input size; writing task_mutable(id).spec directly would
  /// silently desync it (the audit checks).
  void set_task_spec(TaskId id, TaskSpec spec);
  [[nodiscard]] const std::vector<JobId>& jobs_in_order() const noexcept { return job_order_; }
  /// Jobs still in JobState::Running, ascending id — what schedulers and
  /// the straggler detector iterate instead of filtering jobs_in_order().
  /// Ids are dense and submission-ordered, so this is the same order a
  /// filtered jobs_in_order() walk produces.
  [[nodiscard]] const FlatIdSet<JobId>& running_jobs() const noexcept { return running_jobs_; }

  /// Running jobs with remaining work, ordered by (remaining bytes, id).
  /// begin() is the HFSP head job: the old ascending-id min-scan picked
  /// the smallest size with lowest-id tie-break, which is exactly
  /// lexicographic (size, id) order.
  [[nodiscard]] const std::set<std::pair<Bytes, JobId>>& jobs_by_remaining() const noexcept {
    return jobs_by_remaining_;
  }

  /// Running jobs with at least one UNASSIGNED task — the only jobs a
  /// scheduler's launch sweep can do anything with.
  [[nodiscard]] const FlatIdSet<JobId>& schedulable_jobs() const noexcept {
    return schedulable_jobs_;
  }
  /// Jobs in any state with at least one SUSPENDED task, ascending id —
  /// what the schedulers' resume walks iterate. A walk over running_jobs()
  /// or jobs_in_order() visits the same jobs with a non-empty `suspended`
  /// set in the same order, and the jobs it adds had nothing to resume.
  [[nodiscard]] const FlatIdSet<JobId>& jobs_with_suspended() const noexcept {
    return jobs_with_suspended_;
  }
  [[nodiscard]] bool all_jobs_done() const;
  /// Map slots over every registered tracker, lost or not: what the fair
  /// and capacity schedulers divide into shares.
  [[nodiscard]] int cluster_map_slots() const noexcept {
    return static_cast<int>(tracker_slots_.size()) * cfg_.map_slots;
  }
  [[nodiscard]] TaskTracker* tracker(TrackerId id);
  [[nodiscard]] NodeId master_node() const noexcept { return master_; }
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }
  [[nodiscard]] Simulation& sim() noexcept { return sim_; }

  // --- invariant auditing ---------------------------------------------------
  [[nodiscard]] std::string audit_label() const override { return "jobtracker"; }
  /// Audited invariants: task state <-> tracker-binding agreement,
  /// progress bounds, pending-command maps only referencing live tasks,
  /// and per-job completion counts.
  void audit(std::vector<std::string>& violations) const override;
  void dump(std::ostream& os) const override;

  /// Testing-only fault injection: unbind a running task from its tracker
  /// so the state audit fires.
  void testing_corrupt_task_binding(TaskId id) { task_mutable(id).tracker = TrackerId{}; }
  /// Testing-only: emit a raw cluster event (protocol-audit injection).
  void testing_emit_event(ClusterEventType type, JobId job, TaskId task, NodeId node) {
    emit(type, job, task, node);
  }
  /// Testing-only: blacklist a tracker directly, without burning through
  /// `tracker_blacklist_failures` real attempt failures first (exercises
  /// the preempt-order refusal path mid-heartbeat).
  void testing_blacklist_tracker(TrackerId id) {
    if (TrackerSlot* s = slot(id)) s->blacklisted = true;
  }

 private:
  /// A pending Kill command addressed to one specific attempt. The classic
  /// order (`attempt_only == false`) returns the task to the UNASSIGNED
  /// pool when its ack arrives; an attempt-only order (race losers,
  /// speculative copies) just reaps the attempt and leaves the task's
  /// state alone. At most one order per (task, tracker).
  struct KillOrder {
    TrackerId tracker;
    bool sent = false;
    bool attempt_only = false;
  };
  /// Flat per-tracker hot state, indexed by tracker id (docs/PERF.md).
  /// Everything a heartbeat or lease sweep touches lives here in one
  /// cache line instead of four hash maps.
  struct TrackerSlot {
    TaskTracker* tracker = nullptr;
    TrackerId id;
    /// Last heartbeat arrival (the lease; starts at registration).
    SimTime last_heartbeat = 0;
    bool lost = false;
    bool blacklisted = false;
    /// Revocation warning outstanding: assign no new work, but keep the
    /// tracker out of maybe_fail_cluster — it still acks until it dies.
    bool draining = false;
    /// Unrequested attempt failures (blacklist bookkeeping).
    int failures = 0;
  };

  /// The tracker's slot, or nullptr for an id never registered (the
  /// invalid id included).
  [[nodiscard]] const TrackerSlot* slot(TrackerId id) const {
    return id.value() < tracker_slots_.size() ? &tracker_slots_[id.value()] : nullptr;
  }
  [[nodiscard]] TrackerSlot* slot(TrackerId id) {
    return id.value() < tracker_slots_.size() ? &tracker_slots_[id.value()] : nullptr;
  }
  [[nodiscard]] Job& job_ref(JobId id);
  /// The single choke point for task-state writes: transitions the state
  /// and keeps the owning job's index sets and counters in sync. Every
  /// `task.state = ...` in the implementation goes through here.
  void set_task_state(Task& task, TaskState to);
  /// Single write path for a task's progress: keeps the owning job's
  /// remaining-bytes total exact.
  void set_task_progress(Task& task, double progress);
  /// Refile `job` in the derived job indexes (jobs_by_remaining_,
  /// schedulable_jobs_, and the speculation agenda for a job that stopped
  /// running) after anything that can move its key or membership:
  /// remaining-bytes changes, unassigned-pool transitions, job completion
  /// or failure.
  void reindex_job(Job& job);
  /// The single write path for `Job::spec_next_check`: stores the bound
  /// and files a Running job on the speculation agenda — in the due set
  /// when the bound is <= now (0 = stale), in the wheel when it is a
  /// finite future time, nowhere when it is kTimeNever.
  void set_spec_next_check(Job& job, SimTime bound);

  void emit(ClusterEventType type, JobId job, TaskId task, NodeId node);
  void apply_report(const TrackerStatus& status, const TaskStatusReport& report);
  void task_terminal(Task& task, TaskState state);
  void maybe_complete_job(JobId id);
  /// Success bookkeeping shared by both race outcomes: whichever attempt
  /// reported first supplies the output (and, for maps, the node its
  /// output now lives on).
  void task_succeeded(Task& task, NodeId node);
  [[nodiscard]] bool maps_pending(const Job& job) const;
  /// A map just succeeded: if it was the job's last one, push MapsDone
  /// to every live reduce of the job (both attempts of a racing one).
  void maybe_release_reduces(JobId id);

  // --- speculative execution (docs/SPECULATION.md) -------------------------
  /// Straggler detector + backup-attempt launcher. Runs after the
  /// scheduler's assignment pass, filling the reporting tracker's leftover
  /// slots with copies of tasks whose estimated time-to-completion exceeds
  /// `speculative_slowness` × the job mean.
  void maybe_speculate(const TrackerStatus& status, int free_maps, int free_reduces,
                       HeartbeatResponse& response);
  /// One due job's straggler scan and launch pass; returns the attempts
  /// it judged. Refiles the job through set_spec_next_check.
  std::uint64_t speculate_job(Job& job, const TrackerStatus& status, int& free_maps,
                              int& free_reduces, HeartbeatResponse& response);
  /// Drop the backup-attempt binding (race resolved or copy forfeited).
  void clear_speculative(Task& task);
  /// The primary attempt vanished while a copy was racing: adopt the copy
  /// as the new primary instead of requeueing the task from scratch.
  void promote_speculative(Task& task);
  /// Queue a Kill command for the attempt of `id` hosted on `target`.
  /// Idempotent: a duplicate re-arms the existing order for resend.
  void enqueue_kill(TaskId id, TrackerId target, bool attempt_only);
  /// Retire the pending kill order for (task, tracker), reporting whether
  /// one existed and whether it was attempt-only.
  bool erase_kill_order(TaskId id, TrackerId target, bool* attempt_only = nullptr);
  [[nodiscard]] bool kill_pending_on(TaskId id, TrackerId target) const;

  // --- failure model (docs/FAULTS.md) --------------------------------------
  /// Periodic lease sweep; re-arms itself every `expiry_check_interval`.
  /// Declares lost, in ascending id, every tracker not already lost whose
  /// last heartbeat is `tracker_expiry` or more in the past.
  void check_leases();
  /// Lease expired: requeue the tracker's live and suspended attempts,
  /// re-run Succeeded maps whose output lived on its disk, and drop any
  /// checkpoints stored there.
  void declare_lost(TrackerId id);
  /// Clear per-attempt state a requeue must not leak into the successor
  /// (progress, paging totals, checkpoint/suspend flags, completion stamp).
  void reset_attempt_state(Task& task);
  /// Terminal job failure: mark Failed, kill remaining live tasks, notify
  /// the scheduler. `cause`/`node` identify the triggering task (invalid
  /// for cluster-wide failures).
  void fail_job(JobId id, TaskId cause, NodeId node);
  /// Blacklist bookkeeping for an unrequested attempt failure.
  void note_tracker_failure(TrackerId id, NodeId node);
  /// Every registered tracker is lost or blacklisted: nothing can run, so
  /// fail all Running jobs instead of spinning forever.
  void maybe_fail_cluster();

  Simulation& sim_;
  Network& net_;
  NodeId master_;
  HadoopConfig cfg_;
  Scheduler* scheduler_ = nullptr;
  std::vector<std::function<void(const ClusterEvent&)>> event_hooks_;
  /// Checks the §III-B round trips of every event emit() raises, ahead of
  /// the hooks.
  ProtocolAuditor protocol_audit_;

  /// Tracker hot state, indexed by tracker id: trackers register with
  /// dense ids in id order.
  std::vector<TrackerSlot> tracker_slots_;
  /// Jobs and tasks, indexed directly by their dense ids (ids are handed
  /// out sequentially from 0 and entries are never erased). A deque keeps
  /// references stable across growth.
  std::deque<Job> jobs_;
  std::deque<Task> tasks_;
  std::vector<JobId> job_order_;
  /// Jobs still Running, ascending id (maintained by the job-state
  /// transitions in submit/complete/fail).
  FlatIdSet<JobId> running_jobs_;
  std::set<std::pair<Bytes, JobId>> jobs_by_remaining_;
  FlatIdSet<JobId> schedulable_jobs_;
  /// Jobs (any state) with a non-empty `suspended` set, kept beside it in
  /// set_task_state.
  FlatIdSet<JobId> jobs_with_suspended_;
  /// Speculation agenda (docs/PERF.md). A Running job whose straggler scan
  /// is due (spec_next_check <= now) sits in `spec_due_`; one whose bound
  /// is a finite future time is filed in `spec_wheel_`, a min-heap on the
  /// bound. Wheel filings are validated lazily: a filing is live only
  /// while its job runs and still holds that bound, so refiling never
  /// searches the heap. maybe_speculate moves the live filings that came
  /// due into `spec_due_`, then walks it.
  struct SpecFiling {
    SimTime at;
    JobId job;
    /// Heap order: the earliest bound on top.
    [[nodiscard]] static bool later(const SpecFiling& a, const SpecFiling& b) noexcept {
      return a.at > b.at;
    }
  };
  FlatIdSet<JobId> spec_due_;
  std::vector<SpecFiling> spec_wheel_;
  /// When maybe_speculate last drained the wheel: no live filing may be
  /// due at or before it (audited).
  SimTime spec_drained_at_ = -1;
  /// Straggler-scan scratch (candidate attempts of one job); a member so
  /// the per-heartbeat scan reuses one allocation.
  std::vector<std::pair<TaskId, double>> spec_scratch_;
  /// Tasks owed a Suspend/Resume command not yet piggybacked, ascending
  /// id: a request files the task; sending the command, the task going
  /// terminal or being checkpointed, or its copy's promotion drops it.
  /// Heartbeat handling walks it in task-id order.
  FlatIdSet<TaskId> unsent_commands_;
  /// Pending Kill commands per task; a racing task can owe kills to both
  /// its attempts at once. Ordered by task id, the order heartbeat
  /// handling piggybacks them in.
  std::map<TaskId, std::vector<KillOrder>> must_kill_;
  IdGenerator<JobId> job_ids_;
  IdGenerator<TaskId> task_ids_;

  // --- failure model -------------------------------------------------------
  EventId lease_timer_ = 0;

  // --- observability (src/trace) -----------------------------------------
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;          ///< ("cluster", "jobtracker") track
  std::uint32_t sched_trk_ = 0;    ///< ("cluster", "scheduler") track
  std::uint32_t shuffle_trk_ = 0;  ///< ("cluster", "shuffle") track
  trace::Counter* ctr_heartbeats_ = nullptr;
  trace::Counter* ctr_actions_ = nullptr;
  trace::Counter* ctr_oob_maps_done_ = nullptr;
  trace::Counter* ctr_assignments_ = nullptr;
  trace::Counter* ctr_suspends_ = nullptr;
  trace::Counter* ctr_resumes_ = nullptr;
  // Failure counters (jobtracker.* namespace; see docs/FAULTS.md).
  trace::Counter* ctr_trackers_lost_ = nullptr;
  trace::Counter* ctr_tracker_reinits_ = nullptr;
  trace::Counter* ctr_trackers_blacklisted_ = nullptr;
  trace::Counter* ctr_tasks_lost_ = nullptr;
  trace::Counter* ctr_task_failures_ = nullptr;
  trace::Counter* ctr_map_outputs_lost_ = nullptr;
  trace::Counter* ctr_checkpoints_lost_ = nullptr;
  trace::Counter* ctr_jobs_failed_ = nullptr;
  // Revocation counters (docs/REVOKE.md).
  trace::Counter* ctr_trackers_draining_ = nullptr;
  trace::Counter* ctr_checkpoints_evacuated_ = nullptr;
  // Speculation counters (speculation.* namespace; see docs/SPECULATION.md).
  trace::Counter* ctr_spec_launched_ = nullptr;
  trace::Counter* ctr_spec_won_ = nullptr;
  trace::Counter* ctr_spec_lost_ = nullptr;
  trace::Counter* ctr_spec_killed_ = nullptr;
};

}  // namespace osap
