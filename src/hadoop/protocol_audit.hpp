// Protocol auditor for the preemption state machine (§III-B).
//
// The paper's suspension protocol is strictly ordered: MUST_SUSPEND is
// acknowledged as SUSPENDED before MUST_RESUME may be issued, and each
// request crosses the heartbeat exactly once. This auditor observes the
// JobTracker's event stream and flags any transition the protocol does
// not allow — a resume acknowledged before its request, a second suspend
// for an already-parked task, a launch of a task the tracker still holds.
//
// Violations are buffered as they happen and flushed by the simulation's
// next audit sweep, so a protocol bug surfaces within `stride` events of
// the offending transition.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/ids.hpp"
#include "hadoop/events.hpp"

namespace osap {

class Simulation;

/// Owned by the JobTracker, one per tracker, which feeds it every event
/// it emits — so each protocol violation is reported exactly once.
class ProtocolAuditor final : public InvariantAuditor {
 public:
  /// Registers with `sim`'s audit registry.
  explicit ProtocolAuditor(Simulation& sim);
  ~ProtocolAuditor() override;
  ProtocolAuditor(const ProtocolAuditor&) = delete;
  ProtocolAuditor& operator=(const ProtocolAuditor&) = delete;

  /// Advance the observed task's round trip; buffers a violation if the
  /// event is illegal in the task's current phase.
  void observe(const ClusterEvent& e);

  [[nodiscard]] std::string audit_label() const override { return "preempt-protocol"; }
  void audit(std::vector<std::string>& violations) const override;
  void dump(std::ostream& os) const override;

 private:
  /// Where a task stands in the suspend/resume round trips.
  enum class Phase { None, SuspendRequested, Suspended, ResumeRequested };
  [[nodiscard]] static const char* phase_name(Phase p) noexcept;

  Simulation& sim_;
  /// Ordered by id: the dump walks it.
  std::map<TaskId, Phase> phase_by_task_;
  /// Node of the attempt whose suspend round trip is in flight: a kill
  /// aimed at a *different* node reaps a speculative copy and must not
  /// void the original's round trip.
  std::unordered_map<TaskId, NodeId> suspend_node_by_task_;
  /// Buffered until the next audit sweep, which drains them (audit() is
  /// const to the registry; the buffer is not model state).
  mutable std::vector<std::string> violations_;
};

}  // namespace osap
