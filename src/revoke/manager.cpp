#include "revoke/manager.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap::revoke {

namespace {

constexpr const char* kLog = "revoke";

PreemptPrimitive drain_primitive(Reaction reaction) {
  switch (reaction) {
    case Reaction::None: return PreemptPrimitive::Wait;
    case Reaction::Checkpoint: return PreemptPrimitive::NatjamCheckpoint;
    case Reaction::Migrate: return PreemptPrimitive::Suspend;
  }
  return PreemptPrimitive::Wait;
}

}  // namespace

const char* to_string(Reaction r) noexcept {
  switch (r) {
    case Reaction::None: return "none";
    case Reaction::Checkpoint: return "checkpoint";
    case Reaction::Migrate: return "migrate";
  }
  return "?";
}

Reaction parse_reaction(const std::string& name) {
  if (name == "none") return Reaction::None;
  if (name == "checkpoint") return Reaction::Checkpoint;
  if (name == "migrate") return Reaction::Migrate;
  OSAP_CHECK_MSG(false, "unknown revocation reaction '" << name
                                                        << "' (none|checkpoint|migrate)");
  return Reaction::None;
}

RevocationManager::RevocationManager(Cluster& cluster, fault::FaultInjector& injector,
                                     RevocationPlan plan, Reaction reaction)
    : cluster_(cluster),
      injector_(injector),
      plan_(std::move(plan)),
      reaction_(reaction),
      policy_(cluster.job_tracker(), drain_primitive(reaction)),
      migrator_(cluster) {
  trace::CounterRegistry& counters = cluster_.sim().trace().counters();
  ctr_handled_ = &counters.counter(trace::names::kRevokeWarningsHandled);
  ctr_late_ = &counters.counter(trace::names::kRevokeWarningsLate);
  ctr_drain_checkpoints_ = &counters.counter(trace::names::kRevokeDrainCheckpoints);
  ctr_drain_migrations_ = &counters.counter(trace::names::kRevokeDrainMigrations);
  ctr_drain_kills_ = &counters.counter(trace::names::kRevokeDrainKills);
  ctr_evacuations_ = &counters.counter(trace::names::kRevokeEvacuations);
  ctr_migrations_done_ = &counters.counter(trace::names::kRevokeMigrationsDone);
  injector_.set_revocation_handler(
      [this](const fault::NodeRevocation& r, bool accepted) { on_warning(r, accepted); });
  cluster_.job_tracker().add_event_hook([this](const ClusterEvent& e) { on_event(e); });
}

void RevocationManager::on_warning(const fault::NodeRevocation& r, bool accepted) {
  if (!accepted) {
    // The node already died (out-of-order plan) or never registered: the
    // notice window is moot. Count it and move on — nothing to drain.
    ctr_late_->add();
    OSAP_LOG(Warn, kLog) << "late revocation warning for node" << r.node.value() << ", ignored";
    return;
  }
  ctr_handled_->add();
  doomed_.insert(r.node);
  if (reaction_ != Reaction::None) drain(r.node);
}

void RevocationManager::drain(NodeId node) {
  JobTracker& jt = cluster_.job_tracker();
  for (JobId jid : jt.jobs_in_order()) {
    for (TaskId tid : jt.job(jid).tasks) {
      const Task& t = jt.task(tid);
      // A racing backup copy on the doomed node forfeits its race now;
      // the primary elsewhere is untouched.
      if (t.speculating() && t.spec_node == node) jt.kill_speculative(tid);
      if (!t.live() || t.node != node) continue;
      switch (t.state) {
        case TaskState::Running: {
          const policy::Outcome out = policy_.preempt(tid);
          if (!out.issued) break;
          if (out.primitive == PreemptPrimitive::NatjamCheckpoint) {
            ctr_drain_checkpoints_->add();
          } else if (out.primitive == PreemptPrimitive::Kill) {
            ctr_drain_kills_->add();
          }
          break;
        }
        case TaskState::Suspended:
          if (t.checkpointed) {
            // Parked here from an earlier preemption: the checkpoint dies
            // with the node unless evacuated.
            const NodeId target = next_target(node);
            if (target.valid() && jt.evacuate_checkpoint(tid, target)) {
              ctr_evacuations_->add();
              jt.resume_task(tid);
            }
          } else if (reaction_ == Reaction::Migrate) {
            const NodeId target = next_target(node);
            if (target.valid() &&
                migrator_.migrate(tid, target, [this](bool landed) {
                  if (landed) ctr_migrations_done_->add();
                })) {
              ctr_drain_migrations_->add();
            }
          } else if (jt.kill_task(tid)) {
            // A SIGTSTP-parked JVM dies with its node anyway; requeueing
            // during the notice beats losing the slot time to the crash.
            ctr_drain_kills_->add();
          }
          break;
        default:
          // MustSuspend / MustResume: the in-flight command resolves via
          // its ack; the TaskSuspended hook picks the attempt up then.
          break;
      }
    }
  }
}

void RevocationManager::on_event(const ClusterEvent& e) {
  if (e.type != ClusterEventType::TaskSuspended || doomed_.empty()) return;
  JobTracker& jt = cluster_.job_tracker();
  const Task& t = jt.task(e.task);
  if (t.state != TaskState::Suspended) return;
  if (t.checkpointed) {
    // A checkpoint just landed on a doomed disk (the drain's own
    // checkpoint-suspends resolve here): evacuate and resume, so the
    // relaunch fast-forwards on a surviving node.
    if (!t.checkpoint_node.valid() || !doomed_.contains(t.checkpoint_node)) return;
    const NodeId target = next_target(t.checkpoint_node);
    if (target.valid() && jt.evacuate_checkpoint(e.task, target)) {
      ctr_evacuations_->add();
      jt.resume_task(e.task);
    }
  } else if (reaction_ == Reaction::Migrate && t.node.valid() && doomed_.contains(t.node)) {
    const NodeId target = next_target(t.node);
    if (target.valid() &&
        migrator_.migrate(e.task, target, [this](bool landed) {
          if (landed) ctr_migrations_done_->add();
        })) {
      ctr_drain_migrations_->add();
    }
  }
}

NodeId RevocationManager::next_target(NodeId doomed) {
  std::vector<NodeId> on_demand;
  std::vector<NodeId> transient;
  const std::size_t n = plan_.transient.size();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node{i};
    if (node == doomed || doomed_.contains(node) || injector_.node_crashed(node)) continue;
    (plan_.transient[i] ? transient : on_demand).push_back(node);
  }
  // On-demand capacity exclusively while any remains: landing a rescue on
  // another transient node just schedules the next rescue.
  const std::vector<NodeId>& pool = on_demand.empty() ? transient : on_demand;
  if (pool.empty()) return NodeId{};
  return pool[target_cursor_++ % pool.size()];
}

}  // namespace osap::revoke
