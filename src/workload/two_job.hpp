// The paper's experimental scenario (§IV-A, Figure 1).
//
// Two single-task map-only jobs on one worker with one map slot:
//
//   t=0    tl (low priority) is submitted and starts processing its
//          512 MB block;
//   tl@r%  th (high priority) is submitted; the dummy scheduler preempts
//          tl with the primitive under study (wait / kill / susp /
//          natjam) and grants the slot to th;
//   th done  tl is resumed (susp / natjam) or rescheduled (kill) and
//          runs to completion.
//
// Metrics: sojourn time of th and makespan of the workload (§IV-B), plus
// the bytes paged out by tl's process (Fig. 4).
#pragma once

#include <functional>
#include <string>

#include "hadoop/cluster.hpp"
#include "preempt/primitive.hpp"
#include "workload/profiles.hpp"

namespace osap {

struct TwoJobParams {
  PreemptPrimitive primitive = PreemptPrimitive::Suspend;
  /// tl progress (fraction) at which th is launched — the x-axis of
  /// Figures 2 and 3.
  double progress_at_launch = 0.5;
  /// Stateful memory of each task (0 = the light-weight baseline; 2 GiB
  /// each = the worst-case experiment; Fig. 4 varies th's).
  Bytes tl_state = 0;
  Bytes th_state = 0;
  ClusterConfig cluster = paper_cluster();
  std::uint64_t seed = 1;
  /// Service-demand jitter across runs (fraction).
  double jitter = 0.02;
  /// Inline fault plan (newline-separated lines, docs/FAULTS.md syntax);
  /// "" = no injection.
  std::string fault_plan;
  /// Periodic passive hook forwarded to Cluster::run(tick) — may throw
  /// to abort the run (the osapd RSS watchdog does).
  std::function<void()> tick;
  /// Called with the finished cluster before the success check and before
  /// teardown, so harness callers (core::run_descriptor) can extract the
  /// trace digest and counters even from runs whose jobs failed.
  std::function<void(Cluster&)> inspect;
};

struct TwoJobResult {
  Duration sojourn_th = -1;
  Duration sojourn_tl = -1;
  Duration makespan = -1;
  /// Cumulative bytes paged out of tl's process — Fig. 4's swap metric.
  Bytes tl_swapped_out = 0;
  Bytes tl_swapped_in = 0;
  /// All swap-out traffic on the worker's disk.
  Bytes node_swap_out = 0;
  Bytes node_swap_in = 0;
};

TwoJobResult run_two_job(const TwoJobParams& params);

/// Duration of one task of the given spec running alone on the cluster —
/// used for calibration and for normalizing overheads.
Duration solo_task_duration(TaskSpec spec, const ClusterConfig& cluster);

}  // namespace osap
