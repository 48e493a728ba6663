// TaskTracker: runs task attempts as child processes of the node kernel
// and speaks the heartbeat protocol with the JobTracker.
//
// Implements the TaskTracker side of §III-B: tasks are regular processes,
// so suspension and resumption are SIGTSTP / SIGCONT; a suspended task
// releases its slot (that is the whole point of preemption) while its
// memory stays behind for the VMM to manage. Kills run a cleanup attempt
// that holds the slot briefly — the overhead the paper attributes to the
// kill primitive. The attempt table is the only record of slot use: free
// slots and the parked count are read off it.
//
// Speculative backup attempts (docs/SPECULATION.md) need nothing special
// here: a copy is the same TaskId launched on a different tracker, and all
// per-attempt state (live_, pids, suspension) is already per-tracker. At
// most one attempt of a task ever runs on one tracker — the JobTracker
// guarantees it and launch() checks it.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/ids.hpp"
#include "common/ring.hpp"
#include "hadoop/config.hpp"
#include "hadoop/heartbeat.hpp"
#include "net/network.hpp"
#include "os/kernel.hpp"

namespace osap {

class JobTracker;

class TaskTracker final : public InvariantAuditor {
 public:
  TaskTracker(Simulation& sim, Kernel& kernel, Network& net, TrackerId id, NodeId node,
              HadoopConfig cfg);
  ~TaskTracker() override;
  TaskTracker(const TaskTracker&) = delete;
  TaskTracker& operator=(const TaskTracker&) = delete;

  /// Register with the JobTracker and start the heartbeat loop.
  void connect(JobTracker& jt, NodeId master);

  /// Heartbeat response delivery (called through the network): closes
  /// the round-trip span the response echoes and applies its actions.
  void on_response(const HeartbeatResponse& response);

  /// Apply JobTracker-pushed actions that are NOT a response to one of our
  /// heartbeats (e.g. the out-of-band "maps done" push). Kept separate
  /// from on_response so unsolicited messages never consume the
  /// heartbeat round-trip bookkeeping.
  void deliver_actions(const HeartbeatResponse& response);

  // --- fault injection (src/fault, docs/FAULTS.md) -------------------------
  /// The node dies: heartbeats stop, every hosted attempt (running,
  /// suspended, checkpointing, cleanup) is torn down silently — nothing is
  /// reported, because a dead node reports nothing. Recovery happens on
  /// the JobTracker side via heartbeat-lease expiry. Irreversible.
  void crash();
  /// The tracker daemon wedges for `duration`: no heartbeats (periodic or
  /// out-of-band) are sent until it unsticks, while already-running task
  /// attempts keep executing. Pending reports queue up and flush on the
  /// first post-hang heartbeat — unless the lease expired meanwhile, in
  /// which case the JobTracker orders a reinitialization.
  void hang(Duration duration);
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  [[nodiscard]] TrackerId id() const noexcept { return id_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] int free_map_slots() const noexcept;
  [[nodiscard]] int free_reduce_slots() const noexcept;
  /// Hosted attempts SIGTSTP has parked.
  [[nodiscard]] int suspended_tasks() const noexcept;

  [[nodiscard]] bool hosts_task(TaskId id) const { return live_.contains(id); }
  /// Pid of the live attempt, if any (invalid otherwise).
  [[nodiscard]] Pid attempt_pid(TaskId id) const;
  /// Instantaneous progress of a hosted attempt (frozen while suspended).
  [[nodiscard]] double attempt_progress(TaskId id) const;

  // --- invariant auditing ---------------------------------------------------
  [[nodiscard]] std::string audit_label() const override;
  /// Audited invariants: a crashed tracker hosts nothing, and per-task
  /// process-state agreement (suspended => process exists and is stopped;
  /// cleanup => process gone).
  void audit(std::vector<std::string>& violations) const override;
  void dump(std::ostream& os) const override;

 private:
  struct LiveTask {
    TaskId task;
    TaskType type = TaskType::Map;
    Pid pid;
    /// Hadoop Streaming helper process (§V-B), invalid for plain tasks.
    Pid helper;
    bool suspended = false;        // SIGTSTP has taken effect: the slot is free
    bool kill_requested = false;   // distinguishes kills from OOM deaths
    bool checkpointing = false;    // Natjam suspend in progress
    bool in_cleanup = false;
    double checkpoint_progress = 0;
    Bytes state_memory = 0;  // for checkpoint serialization sizing
  };

  void heartbeat();
  void schedule_next_heartbeat();
  void send_status(bool out_of_band);
  /// Take back a status's report list once the JobTracker has read it;
  /// the next status reuses its storage.
  void reuse_reports(std::vector<TaskStatusReport>&& reports);
  /// End the round-trip span of the in-flight heartbeat `span` with
  /// `args`; a span not open is a no-op.
  void end_heartbeat_span(std::uint64_t span, trace::TraceArgs args);
  void apply(const TaskAction& action);
  /// Slots of `type` held by hosted attempts: running, checkpointing and
  /// cleanup attempts hold theirs; only a completed SIGTSTP frees one.
  [[nodiscard]] int held_slots(TaskType type) const noexcept;

  /// ReinitTracker action: the JobTracker expired our lease while we were
  /// alive; discard every hosted attempt silently and rejoin clean.
  void reinit();
  /// Silently kill and forget all hosted attempts (crash / reinit); the
  /// given outcome labels the closed task spans.
  void teardown_attempts(const char* outcome);

  void launch(const TaskAction& action);
  void do_kill(TaskId id);
  void do_suspend(TaskId id);
  void do_resume(TaskId id);
  void do_checkpoint_suspend(TaskId id);
  void on_task_exit(TaskId id, ExitInfo info);
  void finish_cleanup(TaskId id);
  void queue_report(TaskId id, ReportKind kind);

  Simulation& sim_;
  Kernel& kernel_;
  Network& net_;
  TrackerId id_;
  NodeId node_;
  HadoopConfig cfg_;
  JobTracker* jt_ = nullptr;
  NodeId master_;

  /// Hosted attempts by task id; heartbeat reports and teardown walk it
  /// in id order.
  std::map<TaskId, LiveTask> live_;
  std::vector<TaskStatusReport> pending_reports_;
  /// Report lists the JobTracker handed back (reuse_reports), cleared:
  /// each status takes one, so a heartbeat allocates nothing once a list
  /// of its length has been built.
  std::vector<std::vector<TaskStatusReport>> spare_reports_;
  EventId hb_timer_ = 0;
  bool crashed_ = false;
  /// Daemon hang window end (heartbeats suppressed until then).
  SimTime hung_until_ = -1;
  /// True while teardown_attempts runs: on_task_exit skips reporting.
  bool silent_teardown_ = false;
  const char* teardown_outcome_ = "";

  // --- observability (src/trace) -----------------------------------------
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;          ///< (node, "tasktracker") track
  std::uint32_t shuffle_trk_ = 0;  ///< ("cluster", "shuffle") track
  /// Round-trip spans of the heartbeats in flight, in send order: (span
  /// id, was out-of-band). A response closes the span it echoes; a
  /// heartbeat the network dropped never enters.
  RingQueue<std::pair<std::uint64_t, bool>> outstanding_hb_;
  std::uint64_t hb_seq_ = 0;
  trace::Counter* ctr_heartbeats_ = nullptr;
  trace::Counter* ctr_oob_heartbeats_ = nullptr;
  trace::Counter* ctr_actions_ = nullptr;
};

}  // namespace osap
