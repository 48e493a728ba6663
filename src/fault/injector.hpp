// FaultInjector: executes a FaultPlan against a Cluster, deterministically.
//
// Every fault is scheduled as an ordinary simulation event at its scripted
// time, and the message-level faults (drops, delays) are applied by a pure
// (from, to, now) filter installed into the Network — so a fault run is
// exactly as deterministic as a fault-free one. The injector is also an
// InvariantAuditor: it checks that every node death it fired downed one
// tracker and that no fault fired more often than planned.
#pragma once

#include <cstdint>
#include <functional>

#include "audit/audit.hpp"
#include "fault/fault.hpp"
#include "hadoop/cluster.hpp"

namespace osap::fault {

/// Invoked when a revocation warning fires, after the JobTracker has been
/// told to drain the doomed tracker. `accepted` is false when the warning
/// arrived too late (the node already died — out-of-order plan) and the
/// drain was moot. The src/revoke reaction manager hooks in here.
using RevocationHandler = std::function<void(const NodeRevocation&, bool accepted)>;

class FaultInjector final : public InvariantAuditor {
 public:
  /// Schedules the plan immediately; construct after the Cluster (and
  /// destroy before it). Installs the cluster's network message filter —
  /// one injector per cluster.
  FaultInjector(Cluster& cluster, FaultPlan plan);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Whether the node is dead: its tracker crashed. The master node
  /// hosts no tracker and never dies.
  [[nodiscard]] bool node_crashed(NodeId node) const {
    return node != master_ && cluster_.tracker(node).crashed();
  }

  /// Install the proactive-reaction hook for revocation warnings. May be
  /// set any time before the first warning fires; warnings delivered with
  /// no handler installed still drain the tracker.
  void set_revocation_handler(RevocationHandler handler) {
    revocation_handler_ = std::move(handler);
  }

  // --- invariant auditing ---------------------------------------------------
  [[nodiscard]] std::string audit_label() const override { return "fault-injector"; }
  /// Audited invariants: fired-fault counts stay within the plan, and
  /// every node death fired (crash or revocation) downed one tracker.
  void audit(std::vector<std::string>& violations) const override;
  void dump(std::ostream& os) const override;

 private:
  void arm();
  [[nodiscard]] MsgFate filter(NodeId from, NodeId to);

  Cluster& cluster_;
  FaultPlan plan_;
  NodeId master_;
  std::uint64_t crashes_fired_ = 0;
  std::uint64_t hangs_fired_ = 0;
  std::uint64_t checkpoint_losses_fired_ = 0;
  std::uint64_t warnings_fired_ = 0;
  std::uint64_t revocations_fired_ = 0;

  RevocationHandler revocation_handler_;

  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;  ///< ("cluster", "faults") track
  trace::Counter* ctr_crashes_ = nullptr;
  trace::Counter* ctr_hangs_ = nullptr;
  trace::Counter* ctr_checkpoint_losses_ = nullptr;
  trace::Counter* ctr_msgs_dropped_ = nullptr;
  trace::Counter* ctr_msgs_delayed_ = nullptr;
  trace::Counter* ctr_warnings_ = nullptr;
  trace::Counter* ctr_revocations_ = nullptr;
};

}  // namespace osap::fault
