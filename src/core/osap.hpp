// libosap public facade — the one header downstream consumers include.
//
// `core` is the top layer of the architecture DAG (tools/lint/layers.txt,
// lint rule LAY-1): everything below it may not reach up, and everything
// outside the library (tools, tests, the osapd sweep harness) is meant
// to reach the simulator through here. Today it re-exports the two
// entry points the ROADMAP's libosap carve-out anchors on; the sweep
// harness will grow this surface (experiment matrices, result
// streaming) without widening anyone's view of the internals.
//
//   osap::core::ClusterConfig cfg;       // = osap::ClusterConfig
//   osap::core::Cluster cluster(cfg);    // full simulated stack
//   cluster.run();                       // virtual-time event loop
//
// Keep this header include-only and cheap: it must never acquire state,
// and it must keep linting clean as the facade of the layer DAG.
#pragma once

#include "hadoop/cluster.hpp"
#include "sim/simulation.hpp"

namespace osap::core {

/// The assembled simulated stack: per-node kernels, network,
/// JobTracker + TaskTrackers (src/hadoop/cluster.hpp).
using osap::Cluster;
using osap::ClusterConfig;

/// The deterministic virtual-time event loop underneath it
/// (src/sim/simulation.hpp).
using osap::Simulation;

}  // namespace osap::core
