// Hadoop-1 framework parameters.
#pragma once

#include "common/time.hpp"
#include "common/units.hpp"

namespace osap {

struct HadoopConfig {
  /// TaskTracker → JobTracker heartbeat period (Hadoop 1 default 3 s).
  Duration heartbeat_interval = seconds(3);
  /// A TaskTracker sends an immediate out-of-band heartbeat when a task
  /// finishes; this also sends one when a suspension takes effect, so the
  /// freed slot is usable right away rather than at the next periodic
  /// heartbeat. The ablation bench studies the difference.
  bool oob_on_suspend = true;
  /// Concurrent task slots per TaskTracker. The paper's single-slot setup
  /// ("the number of running tasks per machine is limited") maps to 1.
  int map_slots = 2;
  int reduce_slots = 2;
  /// Duration of the cleanup attempt that removes a killed task's
  /// temporary output; it occupies the slot before a successor can start.
  Duration kill_cleanup_duration = seconds(4.0);

  // --- failure model (docs/FAULTS.md) -----------------------------------
  /// Attempts a task may burn (OOM deaths and other unrequested exits)
  /// before the task — and its job — fail terminally. Mirrors Hadoop 1's
  /// `mapred.map.max.attempts` / `mapred.reduce.max.attempts` (default 4).
  /// Kills requested by the framework (preemption) and attempts lost to a
  /// dead tracker do not count, matching Hadoop's killed-vs-failed split.
  int max_task_attempts = 4;
  /// Heartbeat-lease window: a tracker silent for this long is declared
  /// lost and its attempts (live *and* suspended — a SIGTSTP-parked JVM
  /// dies with its node) are requeued. Mirrors
  /// `mapred.tasktracker.expiry.interval` (default 10 min; our smaller
  /// default keeps simulated recovery visible). 0 disables expiry.
  Duration tracker_expiry = seconds(30);
  /// How often the JobTracker sweeps leases. Hadoop checks from a
  /// dedicated thread; one sweep per heartbeat interval keeps detection
  /// latency within one period of the configured expiry.
  Duration expiry_check_interval = seconds(3);
  /// Unrequested attempt failures on one tracker before the JobTracker
  /// stops assigning work to it (Hadoop's per-job tracker blacklist,
  /// folded cluster-wide here). 0 disables blacklisting.
  int tracker_blacklist_failures = 4;

  // --- speculative execution (docs/SPECULATION.md) ----------------------
  /// Launch backup attempts for straggling tasks (Hadoop's
  /// `mapred.*.tasks.speculative.execution`). Off by default here: the
  /// OS-assisted preemption experiments deliberately park tasks in
  /// SUSPENDED, and a speculating JobTracker treats a parked task as the
  /// straggler it genuinely looks like — an interaction experiments must
  /// opt into, not trip over.
  bool speculative_execution = false;
  /// A task is speculatable when its estimated time-to-completion exceeds
  /// the mean estimate over its job's running candidates by this factor.
  double speculative_slowness = 1.5;
  /// Minimum age of the current attempt before its progress rate is
  /// trusted (Hadoop speculates nothing younger than a minute; scaled to
  /// our shorter tasks).
  Duration speculative_min_runtime = seconds(15);
  /// Upper bound on concurrently running backup attempts per job.
  int speculative_cap = 1;
};

}  // namespace osap
