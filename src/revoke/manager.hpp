// RevocationManager: proactive reactions to revocation warnings
// (docs/REVOKE.md).
//
// The FaultInjector delivers each warning to the JobTracker (which marks
// the doomed tracker draining) and then to this manager, which spends the
// notice window rescuing work:
//
//   * checkpoint-on-warning — every running task on the doomed node is
//     preempted through policy::PreemptionPolicy with a Natjam-checkpoint
//     rule; when the Checkpointed ack lands, the saved state is evacuated
//     to a safe node (the checkpoint would otherwise die with the node's
//     disk) and the task resumed, fast-forwarding elsewhere.
//   * suspend-and-migrate — running tasks are SIGTSTP-suspended, then the
//     frozen process image is CRIU-shipped to a safe node via
//     TaskMigrator (no work lost, explicit dump/transfer/restore costs).
//   * replica steering — the NameNode re-replicates the doomed node's
//     blocks toward on-demand nodes before the disk disappears.
//
// A warning that arrives after its node already died (out-of-order plan)
// is counted and dropped — the drain is moot, never wedged.
#pragma once

#include <set>
#include <string>

#include "fault/injector.hpp"
#include "policy/policy.hpp"
#include "preempt/migration.hpp"
#include "revoke/lifetime.hpp"

namespace osap::revoke {

enum class Reaction {
  /// Drain only: the JobTracker stops assigning to the doomed node, but
  /// in-flight work rides the crash (reactive baseline).
  None,
  /// Natjam checkpoint-on-warning with evacuation.
  Checkpoint,
  /// SIGTSTP suspend, then CRIU migration of the frozen image.
  Migrate,
};

[[nodiscard]] const char* to_string(Reaction r) noexcept;
/// Parse "none" / "checkpoint" / "migrate"; throws SimError otherwise.
[[nodiscard]] Reaction parse_reaction(const std::string& name);

class RevocationManager {
 public:
  /// Wires itself into `injector` as the revocation handler and into the
  /// JobTracker's event hooks. Construct after the Cluster and the
  /// injector; keep alive for the whole run (hooks reference it).
  RevocationManager(Cluster& cluster, fault::FaultInjector& injector, RevocationPlan plan,
                    Reaction reaction);
  RevocationManager(const RevocationManager&) = delete;
  RevocationManager& operator=(const RevocationManager&) = delete;

  /// Cluster cost of running until `sim_end` (the frontier's cost axis).
  [[nodiscard]] double cost(double sim_end) const { return plan_.cost(sim_end); }
  [[nodiscard]] const RevocationPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] Reaction reaction() const noexcept { return reaction_; }

 private:
  void on_warning(const fault::NodeRevocation& r, bool accepted);
  void on_event(const ClusterEvent& e);
  /// Drain the doomed node's live work through the policy engine.
  void drain(NodeId node);
  /// Next safe landing node: not doomed, not crashed, on-demand nodes
  /// before transient ones, rotating so rescues spread out. Invalid id
  /// when nothing safe remains.
  [[nodiscard]] NodeId next_target(NodeId doomed);

  Cluster& cluster_;
  fault::FaultInjector& injector_;
  RevocationPlan plan_;
  Reaction reaction_;
  policy::PreemptionPolicy policy_;
  TaskMigrator migrator_;
  /// Nodes with an outstanding warning.
  std::set<NodeId> doomed_;
  std::size_t target_cursor_ = 0;

  trace::Counter* ctr_handled_ = nullptr;
  trace::Counter* ctr_late_ = nullptr;
  trace::Counter* ctr_drain_checkpoints_ = nullptr;
  trace::Counter* ctr_drain_migrations_ = nullptr;
  trace::Counter* ctr_drain_kills_ = nullptr;
  trace::Counter* ctr_evacuations_ = nullptr;
  trace::Counter* ctr_migrations_done_ = nullptr;
  trace::Counter* ctr_blocks_steered_ = nullptr;
};

}  // namespace osap::revoke
