#include "hadoop/protocol_audit.hpp"

#include <sstream>

#include "sim/simulation.hpp"

namespace osap {

const char* ProtocolAuditor::phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::None: return "none";
    case Phase::SuspendRequested: return "suspend-requested";
    case Phase::Suspended: return "suspended";
    case Phase::ResumeRequested: return "resume-requested";
  }
  return "?";
}

void ProtocolAuditor::observe(const ClusterEvent& e) {
  if (!e.task.valid()) return;
  Phase& phase = phase_by_task_[e.task];
  const Phase before = phase;
  const auto illegal = [&] {
    std::ostringstream os;
    os << e.task << ": " << to_string(e.type) << " at t=" << e.time
       << " while in phase " << phase_name(before);
    violations_.push_back(os.str());
  };
  switch (e.type) {
    case ClusterEventType::TaskSuspendRequested:
      if (phase != Phase::None) illegal();
      phase = Phase::SuspendRequested;
      suspend_node_by_task_[e.task] = e.node;
      break;
    case ClusterEventType::TaskSuspended:
      if (phase != Phase::SuspendRequested) illegal();
      phase = Phase::Suspended;
      break;
    case ClusterEventType::TaskResumeRequested:
      if (phase != Phase::Suspended) illegal();
      phase = Phase::ResumeRequested;
      break;
    case ClusterEventType::TaskResumed:
      // Resumed straight from Suspended covers SIGCONT sent outside the
      // JobTracker API (the kernel reports it either way).
      if (phase != Phase::ResumeRequested && phase != Phase::Suspended) illegal();
      phase = Phase::None;
      break;
    case ClusterEventType::TaskLaunched:
      // A checkpointed task relaunches as its resume (ResumeRequested).
      if (phase != Phase::None && phase != Phase::ResumeRequested) illegal();
      phase = Phase::None;
      break;
    case ClusterEventType::TaskKillRequested: {
      // A kill request carries the node of the attempt it reaps. One
      // aimed at a different node than the in-flight suspension takes
      // down a speculative copy only — the original's round trip stays
      // live and a later resume is legal.
      const auto it = suspend_node_by_task_.find(e.task);
      if (it != suspend_node_by_task_.end() && e.node.valid() && it->second.valid() &&
          e.node != it->second) {
        break;
      }
      phase = Phase::None;
      break;
    }
    case ClusterEventType::TaskKilled:
    case ClusterEventType::TaskSucceeded:
    case ClusterEventType::TaskFailed:
    case ClusterEventType::TaskLost:
      // A kill, completion, or tracker loss may land in any phase and
      // voids the round trip in flight (a suspended attempt dies with
      // its node, so its next launch starts a fresh protocol).
      phase = Phase::None;
      break;
    // Job- and tracker-level kinds don't advance a task's
    // suspend/resume round trip; listed explicitly (EVT-1) so a new
    // kind must declare its protocol effect here.
    case ClusterEventType::JobSubmitted:
    case ClusterEventType::JobCompleted:
    case ClusterEventType::JobFailed:
    case ClusterEventType::MapOutputLost:
    case ClusterEventType::TrackerLost:
    case ClusterEventType::TrackerBlacklisted:
    case ClusterEventType::TaskSpeculated:
    case ClusterEventType::SpeculationWon:
    case ClusterEventType::SpeculationLost:
    case ClusterEventType::SpeculationKilled:
    case ClusterEventType::SpeculationPromoted:
    case ClusterEventType::NodeRevocationWarned:
      break;
  }
}

ProtocolAuditor::ProtocolAuditor(Simulation& sim) : sim_(sim) { sim_.audits().add(this); }

ProtocolAuditor::~ProtocolAuditor() { sim_.audits().remove(this); }

void ProtocolAuditor::audit(std::vector<std::string>& violations) const {
  for (std::string& v : violations_) violations.push_back(std::move(v));
  violations_.clear();
}

void ProtocolAuditor::dump(std::ostream& os) const {
  std::size_t in_flight = 0;
  for (const auto& [tid, phase] : phase_by_task_) {
    if (phase != Phase::None) ++in_flight;
  }
  os << phase_by_task_.size() << " tasks observed, " << in_flight
     << " with a suspend/resume round trip in flight\n";
  for (const auto& [tid, phase] : phase_by_task_) {
    if (phase == Phase::None) continue;
    os << "  " << tid << ": " << phase_name(phase) << '\n';
  }
}

}  // namespace osap
