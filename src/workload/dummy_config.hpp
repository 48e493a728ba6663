// Static configuration files for the dummy scheduler (§III-B).
//
// "…a dummy scheduler — which dictates task eviction according to static
// configuration files. This allows to specify, using a series of simple
// triggers, which jobs/tasks are run in the cluster and which are
// preempted."
//
// Line-oriented format ('#' starts a comment):
//
//   # define a job (not yet submitted)
//   job <name> priority <p> tasks <n> input <size> state <size>
//
//   # schedule a submission at an absolute time (seconds)
//   submit <name> at <t>
//
//   # trigger when task <idx> of <job> reaches a progress percentage
//   at-progress <job> <idx> <r>% submit <name>
//   at-progress <job> <idx> <r>% preempt <job2> <idx2> <wait|kill|susp|natjam>
//
//   # trigger when a job completes
//   on-complete <job> restore <job2> <idx2> <wait|kill|susp|natjam>
//   on-complete <job> submit <name>
//
// Sizes accept suffixes B, KiB, MiB, GiB (e.g. "512MiB", "2GiB", "0").
// The two-job experiment of §IV is exactly:
//
//   job tl priority 0 tasks 1 input 512MiB state 0
//   job th priority 10 tasks 1 input 512MiB state 0
//   submit tl at 0.05
//   at-progress tl 0 50% submit th
//   at-progress tl 0 50% preempt tl 0 susp
//   on-complete th restore tl 0 susp
#pragma once

#include <istream>
#include <string>

#include "sched/dummy.hpp"

namespace osap {

/// Parse a dummy-scheduler configuration and install its jobs and
/// triggers. Numbers are read exactly (src/common/parse.hpp): "tasks 1.9"
/// is an error, not one task. Throws SimError with a line number on
/// malformed input.
void load_dummy_config(std::istream& in, DummyScheduler& scheduler, Cluster& cluster);

}  // namespace osap
