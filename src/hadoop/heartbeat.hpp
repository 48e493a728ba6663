// The TaskTracker <-> JobTracker heartbeat protocol (§III-B).
//
// TaskTrackers report state at fixed intervals (plus an out-of-band
// heartbeat when a task finishes); the JobTracker piggybacks task actions
// — launch, kill, and the new suspend/resume — on the response. Command
// acknowledgements arrive with the *following* heartbeat, giving the
// paper's two-round-trip suspension protocol.
//
// A status and its response carry the heartbeat's round-trip span id, so
// the tracker closes exactly the span a response answers even when
// heartbeats were dropped or delayed past one another.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hadoop/task.hpp"

namespace osap {

enum class ReportKind {
  Progress,       // periodic status of a running task
  Suspended,      // SIGTSTP took effect
  Resumed,        // SIGCONT took effect
  Succeeded,
  KilledAck,      // attempt killed and its cleanup finished
  Failed,         // attempt died (e.g. OOM-killed)
  Checkpointed,   // Natjam-style suspend: state serialized, process exited
};

struct TaskStatusReport {
  TaskId task;
  ReportKind kind = ReportKind::Progress;
  double progress = 0;
  Bytes swapped_out = 0;
  Bytes swapped_in = 0;
};

struct TrackerStatus {
  TrackerId tracker;
  NodeId node;
  int free_map_slots = 0;
  int free_reduce_slots = 0;
  std::vector<TaskStatusReport> reports;
  /// The sender's round-trip span id; the response echoes it.
  std::uint64_t span = 0;
};

enum class ActionKind {
  /// Start an attempt. Also used to start a speculative backup attempt:
  /// the copy is the same TaskId launched on a different tracker, so
  /// per-tracker bookkeeping needs no new action kind.
  Launch,
  Kill,
  Suspend,
  Resume,
  /// Natjam-style application-level suspension (§II related work): stop
  /// the task, serialize its state to disk, then tear the JVM down. Unlike
  /// the OS-assisted primitive the serialization cost is always paid.
  CheckpointSuspend,
  /// All of the task's job's maps have succeeded: a reduce launched with
  /// `wait_for_maps` may leave its shuffle barrier and start sorting.
  MapsDone,
  /// The JobTracker declared this tracker lost while it was still alive
  /// (lease expired during a heartbeat-loss window). Everything it hosts
  /// has already been requeued elsewhere, so it must silently discard its
  /// attempts and rejoin with a clean slate — Hadoop 1's reinitialization
  /// path for a tracker that heartbeats after being expired.
  ReinitTracker,
};

const char* to_string(ActionKind k) noexcept;

struct TaskAction {
  ActionKind kind = ActionKind::Launch;
  TaskId task;
  /// Populated for Launch.
  TaskSpec spec;
};

struct HeartbeatResponse {
  std::vector<TaskAction> actions;
  /// The span of the heartbeat answered; 0 for an unsolicited push.
  std::uint64_t span = 0;
};

}  // namespace osap
