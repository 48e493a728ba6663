// The central string-identifier registry (lint rule SID-1).
//
// Every dotted counter/gauge name and every trace span/instant name the
// simulator emits is declared here, once. osap-lint parses this header
// (--names=src/trace/names.hpp) and flags any identifier used at a
// counter()/gauge()/value()/begin()/instant()/async_*() call site that
// is not declared — including edit-distance-1 near-misses, the typo
// class that silently forks a metric into two series and breaks every
// A/B comparison derived from it (the HFSP scheduler study reads these
// exact names).
//
// Two kinds of entry:
//   * full names ("jobtracker.heartbeats_handled") — global series;
//   * suffixes, value starting with '.' (".kernel.spawned") — per-node
//     series composed as <node-name> + suffix at attach time. A used
//     name matches a suffix entry by its tail.
//
// Keep the values byte-identical when refactoring: they feed the
// counters JSON, the Chrome trace, and golden digests.
#pragma once

namespace osap::trace::names {

// --- global counters ------------------------------------------------------

// Fault injection (src/fault/injector.cpp).
inline constexpr const char* kFaultNodeCrashes = "fault.node_crashes";
inline constexpr const char* kFaultTrackerHangs = "fault.tracker_hangs";
inline constexpr const char* kFaultCheckpointLosses = "fault.checkpoint_losses";
inline constexpr const char* kFaultMessagesDropped = "fault.messages_dropped";
inline constexpr const char* kFaultMessagesDelayed = "fault.messages_delayed";
inline constexpr const char* kFaultRevocationWarnings = "fault.revocation_warnings";
inline constexpr const char* kFaultRevocations = "fault.revocations";

// JobTracker control plane (src/hadoop/job_tracker.cpp).
inline constexpr const char* kJtHeartbeatsHandled = "jobtracker.heartbeats_handled";
inline constexpr const char* kJtActionsSent = "jobtracker.actions_sent";
inline constexpr const char* kJtOobMapsDonePushes = "jobtracker.oob_maps_done_pushes";
inline constexpr const char* kJtSuspendRequests = "jobtracker.suspend_requests";
inline constexpr const char* kJtResumeRequests = "jobtracker.resume_requests";
inline constexpr const char* kJtTrackersLost = "jobtracker.trackers_lost";
inline constexpr const char* kJtTrackerReinits = "jobtracker.tracker_reinits";
inline constexpr const char* kJtTrackersBlacklisted = "jobtracker.trackers_blacklisted";
inline constexpr const char* kJtTasksLost = "jobtracker.tasks_lost";
inline constexpr const char* kJtTaskFailures = "jobtracker.task_failures";
inline constexpr const char* kJtMapOutputsLost = "jobtracker.map_outputs_lost";
inline constexpr const char* kJtCheckpointsLost = "jobtracker.checkpoints_lost";
inline constexpr const char* kJtJobsFailed = "jobtracker.jobs_failed";
inline constexpr const char* kJtTrackersDraining = "jobtracker.trackers_draining";
inline constexpr const char* kJtCheckpointsEvacuated = "jobtracker.checkpoints_evacuated";

// Scheduling and speculation.
inline constexpr const char* kSchedAssignments = "scheduler.assignments";
inline constexpr const char* kSpecLaunched = "speculation.launched";
inline constexpr const char* kSpecWon = "speculation.won";
inline constexpr const char* kSpecLost = "speculation.lost";
inline constexpr const char* kSpecKilled = "speculation.killed";

// Preemption-policy engine and gang rotator (src/policy). Decisions are
// counted per outcome so a matrix cell's counters show which mechanism
// actually fired for each queue (docs/POLICY.md).
inline constexpr const char* kPolicyDecisions = "policy.decisions";
inline constexpr const char* kPolicyWaits = "policy.wait_decisions";
inline constexpr const char* kPolicyKills = "policy.kill_decisions";
inline constexpr const char* kPolicySuspends = "policy.suspend_decisions";
inline constexpr const char* kPolicyCheckpoints = "policy.checkpoint_decisions";
inline constexpr const char* kPolicyRequeues = "policy.requeue_decisions";
inline constexpr const char* kPolicySwapDemotions = "policy.swap_demotions";
inline constexpr const char* kPolicyOrdersRefused = "policy.orders_refused";
inline constexpr const char* kPolicyGangRotations = "policy.gang_rotations";
inline constexpr const char* kPolicyGangSuspends = "policy.gang_suspends";
inline constexpr const char* kPolicyGangResumes = "policy.gang_resumes";
inline constexpr const char* kPolicyGangAdmissionRefused = "policy.gang_admission_refused";

// Node-revocation subsystem (src/revoke; docs/REVOKE.md). Warning
// reactions are counted per mechanism so a frontier cell's counters show
// how the drain of each doomed node actually resolved.
inline constexpr const char* kRevokeWarningsHandled = "revoke.warnings_handled";
inline constexpr const char* kRevokeWarningsLate = "revoke.warnings_late";
inline constexpr const char* kRevokeDrainCheckpoints = "revoke.drain_checkpoints";
inline constexpr const char* kRevokeDrainMigrations = "revoke.drain_migrations";
inline constexpr const char* kRevokeDrainKills = "revoke.drain_kills";
inline constexpr const char* kRevokeEvacuations = "revoke.evacuations";
inline constexpr const char* kRevokeMigrationsDone = "revoke.migrations_done";
/// Registered by nothing; declared only because the benchmark harness
/// (perfbench/harness.cpp) still reads it, as 0, until the benchmark's
/// next change.
inline constexpr const char* kRevokeBlocksSteered = "revoke.blocks_steered";

// osapd sweep harness (src/osapd/sweep.cpp). These count harness-side
// work — cache traffic, worker lifecycle — not simulated events, and
// surface in the matrix summary's "counters" block.
inline constexpr const char* kOsapdCellsTotal = "osapd.cells_total";
inline constexpr const char* kOsapdCellsCompleted = "osapd.cells_completed";
inline constexpr const char* kOsapdCellsFailed = "osapd.cells_failed";
inline constexpr const char* kOsapdCacheHits = "osapd.cache_hits";
inline constexpr const char* kOsapdCacheMisses = "osapd.cache_misses";
inline constexpr const char* kOsapdCacheStores = "osapd.cache_stores";
inline constexpr const char* kOsapdCacheQuarantined = "osapd.cache_quarantined";
inline constexpr const char* kOsapdWorkerDeaths = "osapd.worker_deaths";
inline constexpr const char* kOsapdCellsRescheduled = "osapd.cells_rescheduled";
inline constexpr const char* kOsapdRssAborts = "osapd.rss_aborts";
inline constexpr const char* kOsapdCancelled = "osapd.cancelled";

// --- global gauges --------------------------------------------------------

inline constexpr const char* kClusterJobsRunning = "cluster.jobs_running";

// --- per-node counter suffixes (<node-name> + suffix) ---------------------

// Virtual memory manager (src/os/vmm.cpp).
inline constexpr const char* kVmmPagedOutBytes = ".paged_out_bytes";
inline constexpr const char* kVmmPagedInBytes = ".paged_in_bytes";
inline constexpr const char* kVmmSwapDiscardedBytes = ".swap_discarded_bytes";
inline constexpr const char* kVmmSwapOutIoBytes = ".swap_out_io_bytes";
inline constexpr const char* kVmmSwapInIoBytes = ".swap_in_io_bytes";

// Kernel (src/os/kernel.cpp).
inline constexpr const char* kKernelSpawned = ".kernel.spawned";
inline constexpr const char* kKernelSignals = ".kernel.signals";
inline constexpr const char* kKernelOomKills = ".kernel.oom_kills";

// TaskTracker (src/hadoop/task_tracker.cpp).
inline constexpr const char* kTtHeartbeatsSent = ".tasktracker.heartbeats_sent";
inline constexpr const char* kTtOobHeartbeats = ".tasktracker.oob_heartbeats";
inline constexpr const char* kTtActionsApplied = ".tasktracker.actions_applied";

// --- async span names (TRC-1 pairs these project-wide) --------------------

inline constexpr const char* kSpanJob = "job";
inline constexpr const char* kSpanTask = "task";
inline constexpr const char* kSpanSuspend = "suspend";
inline constexpr const char* kSpanResume = "resume";
inline constexpr const char* kSpanMapsDoneDelivery = "maps_done_delivery";
inline constexpr const char* kSpanHeartbeat = "heartbeat";
inline constexpr const char* kSpanOobHeartbeat = "oob_heartbeat";
inline constexpr const char* kSpanSigtstpWindow = "sigtstp_window";
inline constexpr const char* kSpanStopped = "stopped";
inline constexpr const char* kSpanSwapIn = "swap_in";
inline constexpr const char* kSpanSwapOut = "swap_out";

// --- instant event names --------------------------------------------------

inline constexpr const char* kInstSpawn = "spawn";
inline constexpr const char* kInstExit = "exit";
inline constexpr const char* kInstOomKill = "oom_kill";
inline constexpr const char* kInstNodeCrash = "node_crash";
inline constexpr const char* kInstTrackerHang = "tracker_hang";
inline constexpr const char* kInstCheckpointLoss = "checkpoint_loss";
inline constexpr const char* kInstPreempt = "preempt";
inline constexpr const char* kInstPreemptRefused = "preempt_refused";
inline constexpr const char* kInstRestore = "restore";
inline constexpr const char* kInstGangRotate = "gang_rotate";
inline constexpr const char* kInstResumeCheckpointed = "resume_checkpointed";
inline constexpr const char* kInstSpeculationDeadHeat = "speculation_dead_heat";
inline constexpr const char* kInstSpeculationPromoted = "speculation_promoted";
inline constexpr const char* kInstSpeculate = "speculate";
inline constexpr const char* kInstAssign = "assign";
inline constexpr const char* kInstTrackerLost = "tracker_lost";
inline constexpr const char* kInstTrackerBlacklisted = "tracker_blacklisted";
inline constexpr const char* kInstTrackerReinit = "tracker_reinit";
inline constexpr const char* kInstRevocationWarning = "revocation_warning";
inline constexpr const char* kInstNodeRevoked = "node_revoked";
inline constexpr const char* kInstCheckpointEvacuated = "checkpoint_evacuated";

}  // namespace osap::trace::names
