// Workload presets matching the paper's experimental setup (§IV-A).
//
//  * paper_cluster(): one worker with 4 GB RAM, one map slot, swappiness 0
//    — the testbed configuration.
//  * light_map_task(): a stateless synthetic mapper that reads and parses
//    a 512 MB single-block input (~77 s of work).
//  * hungry_map_task(): the worst-case stateful mapper: additionally
//    allocates a large dirty state at startup and reads it back when
//    finalizing.
//  * single_task_job(): wraps one task in a map-only job (tl / th).
#pragma once

#include "common/rng.hpp"
#include "hadoop/cluster.hpp"
#include "hadoop/job.hpp"

namespace osap {

/// The paper's testbed: 4 GB RAM, single map slot, swappiness 0.
ClusterConfig paper_cluster();

/// Stateless synthetic mapper over a 512 MB block: "both jobs run
/// synthetic mappers, which read and parse the randomly generated input".
TaskSpec light_map_task(Bytes input = 512 * MiB);

/// Memory-hungry stateful mapper: `state` dirtied at startup, read back at
/// the end (2 GB in the paper's worst case; "this requires an ad hoc
/// change to the Hadoop configuration").
TaskSpec hungry_map_task(Bytes state, Bytes input = 512 * MiB);

/// Map-only single-task job, optionally pinned to a node for locality.
JobSpec single_task_job(std::string name, int priority, TaskSpec task);

/// Apply +-`fraction` multiplicative jitter to a task's service demands so
/// repeated runs differ (the paper averages 20 runs whose min/max stay
/// within 5% of the mean).
TaskSpec jitter_task(TaskSpec spec, Rng& rng, double fraction = 0.02);

}  // namespace osap
