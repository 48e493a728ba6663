// Deterministic fault plans (docs/FAULTS.md).
//
// A FaultPlan is a fully scripted failure schedule: node crashes, tracker
// daemon hangs, heartbeat-drop windows, control-message delay windows and
// checkpoint disk losses, each pinned to a simulated time. Nothing in the
// plan is sampled at run time — the same plan against the same workload
// produces a bit-identical event-trace digest (the repo's determinism
// law, enforced by tests/determinism double runs).
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace osap::fault {

/// The node dies at `at`: its tracker stops heartbeating, every hosted
/// attempt (running, SIGTSTP-suspended, checkpointing, cleanup) dies with
/// it, and its local disk — map outputs and checkpoint files included —
/// is gone. Recovery is JobTracker lease expiry.
struct NodeCrash {
  SimTime at = 0;
  NodeId node;
};

/// The tracker daemon wedges for `duration` starting at `at`: no
/// heartbeats leave the node, while already-running attempts keep
/// executing. If the hang outlives the lease, the JobTracker declares the
/// tracker lost and reinitializes it on rejoin.
struct TrackerHang {
  SimTime at = 0;
  NodeId node;
  Duration duration = 0;
};

/// Every tracker→master control message from `node` is dropped during
/// [from, until). Master→node traffic is untouched — the failure modeled
/// is the tracker's reporting path, and one-way loss is the harder case
/// for the lease logic anyway.
struct HeartbeatDrop {
  SimTime from = 0;
  SimTime until = 0;
  NodeId node;
};

/// Control messages to or from `node` pick up `extra` latency during
/// [from, until) — a congested or flapping link rather than a dead one.
struct MessageDelay {
  SimTime from = 0;
  SimTime until = 0;
  NodeId node;
  Duration extra = 0;
};

/// The node's disk loses its Natjam checkpoint files at `at` (without the
/// node itself dying): checkpoint-parked tasks requeue from scratch and
/// saved fast-forward state is forgotten.
struct CheckpointLoss {
  SimTime at = 0;
  NodeId node;
};

/// Spot-style node revocation (docs/REVOKE.md): the node dies at `at`
/// exactly like a NodeCrash, but a RevocationWarning is delivered to the
/// JobTracker `warning` seconds earlier (clamped to plan start), giving
/// proactive policies — checkpoint-on-warning, suspend-and-migrate — a
/// window to drain the doomed node.
struct NodeRevocation {
  SimTime at = 0;
  NodeId node;
  Duration warning = 0;
};

struct FaultPlan {
  std::vector<NodeCrash> crashes;
  std::vector<TrackerHang> hangs;
  std::vector<HeartbeatDrop> heartbeat_drops;
  std::vector<MessageDelay> delays;
  std::vector<CheckpointLoss> checkpoint_losses;
  std::vector<NodeRevocation> revocations;

  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && hangs.empty() && heartbeat_drops.empty() && delays.empty() &&
           checkpoint_losses.empty() && revocations.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return crashes.size() + hangs.size() + heartbeat_drops.size() + delays.size() +
           checkpoint_losses.size() + revocations.size();
  }
};

/// Parse the line-based plan schema (docs/FAULTS.md):
///
///   # comment / blank lines ignored
///   crash <t> <node>
///   hang <t> <node> <duration>
///   drop-heartbeats <from> <until> <node>
///   delay-messages <from> <until> <node> <extra>
///   lose-checkpoints <t> <node>
///   revoke <t> <node> <warning_s>
///
/// Times are simulated seconds, nodes are worker indices. Throws SimError
/// on a malformed line. Scheduling the same node's death twice at the
/// same timestamp (crash+crash, crash+revoke or revoke+revoke) is a parse
/// error: the injector would otherwise tear the node down twice.
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

}  // namespace osap::fault
