// Tasks: the unit of preemption.
//
// A TaskSpec describes the synthetic workload a task attempt executes
// (§IV-A: mappers that read and parse randomly generated input, optionally
// allocating a large in-memory state written at startup and read back at
// finalization). TaskState carries the paper's JobTracker-side states,
// including the new MUST_SUSPEND / SUSPENDED / MUST_RESUME introduced by
// the preemption primitive (§III-B).
#pragma once

#include <string>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "os/program.hpp"

namespace osap {

enum class TaskType { Map, Reduce };

enum class TaskState {
  Unassigned,   // waiting for a slot (also after a kill-for-preemption)
  Running,
  MustSuspend,  // suspend requested; command not yet acknowledged
  Suspended,
  MustResume,   // resume requested; command not yet acknowledged
  Succeeded,
  Failed,
};

const char* to_string(TaskState s) noexcept;
const char* to_string(TaskType t) noexcept;

struct TaskSpec {
  TaskType type = TaskType::Map;
  std::string name = "task";

  /// HDFS input block (maps). Invalid id = synthetic input of input_bytes.
  BlockId input_block;
  Bytes input_bytes = 512 * MiB;
  /// Parse cost. The default makes a 512 MB block take ~76 s of CPU —
  /// matching the paper's task durations — so parsing, not the disk, is
  /// the bottleneck.
  double parse_cpu_per_byte = 1.0 / (6.7 * static_cast<double>(MiB));

  /// Execution-engine footprint (JVM, I/O buffers, sort buffers): hot for
  /// the task's whole life. The paper's "light-weight" tasks have only
  /// this.
  Bytes framework_memory = 192 * MiB;
  /// Stateful-task memory: written (dirtied) at startup, idle during
  /// processing, read back at finalization (§IV worst case).
  Bytes state_memory = 0;
  /// Read the state back when finalizing (the paper's memory-hungry jobs
  /// do; it forces page-in of anything swapped).
  bool touch_state_at_end = true;
  /// Fraction of the task's lifetime during which the state is actually
  /// needed. 1.0 (default) holds it until the end — a JVM whose garbage
  /// collector never returns memory to the OS. Smaller values model §V-B's
  /// advice: dispose of large objects and use a releasing collector (G1 /
  /// System.gc()), shrinking the footprint a suspension might have to
  /// page.
  double state_lifetime = 1.0;

  Bytes output_bytes = 0;
  /// JVM spawn + task initialization cost.
  double startup_cpu_seconds = 1.0;

  // Reduce-only: bytes of map output fetched+merged before reducing. The
  // simulator reads them from the local disk (single-node shuffle).
  Bytes shuffle_bytes = 0;
  double sort_cpu_seconds = 0;
  /// Set by the JobTracker at launch time: the job still has unfinished
  /// maps, so the reduce must block after its shuffle until the
  /// MapsDone heartbeat action releases it. Not user-configured.
  bool wait_for_maps = false;

  /// Preferred (data-local) node; invalid = any.
  NodeId preferred_node;

  // --- Hadoop Streaming (§V-B external state) ---------------------------
  /// Size of the external executable the task pipes through (0 = plain
  /// Java task). The helper runs as its own OS process; suspending the
  /// task leaves the helper blocked on its input pipe, so the TaskTracker
  /// stops and continues it alongside the task.
  Bytes streaming_helper_memory = 0;
  /// Helper's processing cost per input byte (CPU it burns in parallel
  /// with the mapper).
  double streaming_cpu_per_byte = 0;

  // --- Natjam-style checkpoint resume (set by the JobTracker when
  // relaunching a checkpointed task; not user-configured) ---------------
  /// Fraction of the input already processed before checkpointing; the
  /// relaunched attempt fast-forwards past it.
  double checkpoint_progress = 0;
  /// Serialized state read back (deserialized) at relaunch.
  Bytes checkpoint_state = 0;
};

/// Materialize the process program a TaskTracker child JVM runs for this
/// spec.
Program build_task_program(const TaskSpec& spec);

/// A task as the JobTracker tracks it.
struct Task {
  TaskId id;
  JobId job;
  TaskSpec spec;
  TaskState state = TaskState::Unassigned;

  int attempts_started = 0;
  /// Unrequested attempt deaths (OOM kills, crashes) charged against
  /// `hadoop.max_task_attempts`. Framework kills and tracker-loss
  /// requeues do not count (Hadoop's killed-vs-failed split).
  int attempts_failed = 0;
  /// Backup attempts launched over the task's lifetime (speculative
  /// execution; never charged against `max_task_attempts`).
  int attempts_speculative = 0;
  /// Node of the live (running or suspended) attempt.
  NodeId node;
  TrackerId tracker;
  double progress = 0;
  /// Launch time of the current primary attempt (-1 when unassigned);
  /// the straggler detector's progress-rate clock.
  SimTime attempt_started_at = -1;

  // --- speculative backup attempt (docs/SPECULATION.md) -----------------
  /// Binding of the live backup attempt; invalid when none is racing. The
  /// copy runs the same TaskId on a *different* tracker, so every status
  /// report is routed by (task, reporting tracker).
  TrackerId spec_tracker;
  NodeId spec_node;
  double spec_progress = 0;
  SimTime spec_started_at = -1;

  SimTime first_launched_at = -1;
  SimTime completed_at = -1;
  /// Node whose local disk holds this (Succeeded) map's output. Hadoop 1
  /// serves map output from the worker's own disk, so losing the node
  /// loses the output and forces a re-execution while reduces shuffle.
  NodeId completed_node;
  /// Node whose disk holds the Natjam checkpoint files (set on the
  /// Checkpointed report); a disk-loss fault there invalidates the
  /// fast-forward state.
  NodeId checkpoint_node;
  /// Paging totals of the last attempt, reported by the TaskTracker.
  Bytes swapped_out = 0;
  Bytes swapped_in = 0;
  /// Set when a Natjam checkpoint-suspend completed: the task has no live
  /// process; "resuming" relaunches it with fast-forward.
  bool checkpointed = false;
  /// Pending suspend should use the checkpoint path instead of SIGTSTP.
  bool use_checkpoint = false;

  /// A backup attempt is currently racing the primary one.
  [[nodiscard]] bool speculating() const noexcept { return spec_tracker.valid(); }

  [[nodiscard]] bool live() const noexcept {
    return state == TaskState::Running || state == TaskState::MustSuspend ||
           state == TaskState::Suspended || state == TaskState::MustResume;
  }
  [[nodiscard]] bool done() const noexcept {
    return state == TaskState::Succeeded || state == TaskState::Failed;
  }
};

}  // namespace osap
