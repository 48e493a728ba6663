#include "fault/injector.hpp"

#include <sstream>

#include "common/log.hpp"
#include "trace/names.hpp"

namespace osap::fault {

namespace {
constexpr const char* kLog = "fault";
}

FaultInjector::FaultInjector(Cluster& cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan)), master_(cluster.job_tracker().master_node()) {
  Simulation& sim = cluster_.sim();
  sim.audits().add(this);
  tracer_ = &sim.trace().tracer();
  trk_ = tracer_->track("cluster", "faults");
  trace::CounterRegistry& counters = sim.trace().counters();
  ctr_crashes_ = &counters.counter(trace::names::kFaultNodeCrashes);
  ctr_hangs_ = &counters.counter(trace::names::kFaultTrackerHangs);
  ctr_checkpoint_losses_ = &counters.counter(trace::names::kFaultCheckpointLosses);
  ctr_msgs_dropped_ = &counters.counter(trace::names::kFaultMessagesDropped);
  ctr_msgs_delayed_ = &counters.counter(trace::names::kFaultMessagesDelayed);
  ctr_warnings_ = &counters.counter(trace::names::kFaultRevocationWarnings);
  ctr_revocations_ = &counters.counter(trace::names::kFaultRevocations);
  arm();
}

FaultInjector::~FaultInjector() { cluster_.sim().audits().remove(this); }

void FaultInjector::arm() {
  Simulation& sim = cluster_.sim();
  // Message-level faults act through the network filter; time-pinned
  // faults become ordinary events. Scheduling order follows the plan's
  // vector order, which is part of the scenario definition — two runs of
  // one plan schedule identically.
  if (!plan_.heartbeat_drops.empty() || !plan_.delays.empty() || !plan_.crashes.empty() ||
      !plan_.revocations.empty()) {
    cluster_.network().set_message_filter(
        [this](NodeId from, NodeId to) { return filter(from, to); });
  }
  for (const NodeCrash& f : plan_.crashes) {
    sim.at(std::max(f.at, sim.now()), [this, f] {
      if (node_crashed(f.node)) return;  // a dead node cannot die again
      OSAP_LOG(Warn, kLog) << "injecting node crash on node" << f.node.value();
      ++crashes_fired_;
      ctr_crashes_->add();
      tracer_->instant(trk_, "node_crash", {{"node", f.node.value()}});
      cluster_.tracker(f.node).crash();
    });
  }
  for (const TrackerHang& f : plan_.hangs) {
    sim.at(std::max(f.at, sim.now()), [this, f] {
      OSAP_LOG(Warn, kLog) << "injecting tracker hang on node" << f.node.value();
      ++hangs_fired_;
      ctr_hangs_->add();
      tracer_->instant(trk_, "tracker_hang", {{"node", f.node.value()}});
      cluster_.tracker(f.node).hang(f.duration);
    });
  }
  for (const CheckpointLoss& f : plan_.checkpoint_losses) {
    sim.at(std::max(f.at, sim.now()), [this, f] {
      OSAP_LOG(Warn, kLog) << "injecting checkpoint disk loss on node" << f.node.value();
      ++checkpoint_losses_fired_;
      ctr_checkpoint_losses_->add();
      tracer_->instant(trk_, "checkpoint_loss", {{"node", f.node.value()}});
      cluster_.job_tracker().lose_checkpoints_on(f.node);
    });
  }
  for (const NodeRevocation& f : plan_.revocations) {
    // The warning lands `f.warning` before the death (clamped to now): the
    // JobTracker drains the tracker, then the installed reaction handler
    // gets its window. The death itself shares the crash teardown, and like
    // a crash it skips a node already dead.
    sim.at(std::max(f.at - f.warning, sim.now()), [this, f] {
      OSAP_LOG(Warn, kLog) << "revocation warning for node" << f.node.value() << " (dies at t="
                           << f.at << ")";
      ++warnings_fired_;
      ctr_warnings_->add();
      tracer_->instant(trk_, "revocation_warning", {{"node", f.node.value()}});
      const bool accepted =
          cluster_.job_tracker().warn_revocation(cluster_.tracker(f.node).id());
      if (revocation_handler_) revocation_handler_(f, accepted);
    });
    sim.at(std::max(f.at, sim.now()), [this, f] {
      if (node_crashed(f.node)) return;  // already downed elsewhere in the plan
      OSAP_LOG(Warn, kLog) << "revoking node" << f.node.value();
      ++revocations_fired_;
      ctr_revocations_->add();
      tracer_->instant(trk_, "node_revoked", {{"node", f.node.value()}});
      cluster_.tracker(f.node).crash();
    });
  }
}

MsgFate FaultInjector::filter(NodeId from, NodeId to) {
  MsgFate fate;
  // A dead node neither sends nor receives; messages already in flight at
  // crash time still deliver (they were on the wire) and are discarded by
  // the crashed TaskTracker's guards.
  if (node_crashed(from) || node_crashed(to)) {
    fate.drop = true;
    ctr_msgs_dropped_->add();
    return fate;
  }
  const SimTime now = cluster_.sim().now();
  for (const HeartbeatDrop& w : plan_.heartbeat_drops) {
    // Tracker→master only: the master's pushes (MapsDone, responses) are
    // never dropped, so a drop storm starves the lease, not the barrier.
    if (from == w.node && to == master_ && now >= w.from && now < w.until) {
      fate.drop = true;
      ctr_msgs_dropped_->add();
      return fate;
    }
  }
  for (const MessageDelay& w : plan_.delays) {
    if ((from == w.node || to == w.node) && now >= w.from && now < w.until) {
      fate.extra_delay += w.extra;
    }
  }
  if (fate.extra_delay > 0) ctr_msgs_delayed_->add();
  return fate;
}

void FaultInjector::audit(std::vector<std::string>& violations) const {
  const auto flag = [&violations](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    violations.push_back(os.str());
  };
  if (crashes_fired_ > plan_.crashes.size()) {
    flag("fired ", crashes_fired_, " crashes for a plan of ", plan_.crashes.size());
  }
  if (hangs_fired_ > plan_.hangs.size()) {
    flag("fired ", hangs_fired_, " hangs for a plan of ", plan_.hangs.size());
  }
  if (checkpoint_losses_fired_ > plan_.checkpoint_losses.size()) {
    flag("fired ", checkpoint_losses_fired_, " checkpoint losses for a plan of ",
         plan_.checkpoint_losses.size());
  }
  if (warnings_fired_ > plan_.revocations.size()) {
    flag("fired ", warnings_fired_, " revocation warnings for a plan of ",
         plan_.revocations.size());
  }
  if (revocations_fired_ > plan_.revocations.size()) {
    flag("fired ", revocations_fired_, " revocations for a plan of ", plan_.revocations.size());
  }
  std::uint64_t crashed = 0;
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    if (node_crashed(cluster_.node(i))) ++crashed;
  }
  if (crashed != crashes_fired_ + revocations_fired_) {
    flag(crashes_fired_ + revocations_fired_, " node-death faults fired but ", crashed,
         " trackers crashed");
  }
}

void FaultInjector::dump(std::ostream& os) const {
  os << plan_.size() << " planned faults; fired: " << crashes_fired_ << " crashes, "
     << hangs_fired_ << " hangs, " << checkpoint_losses_fired_ << " checkpoint losses, "
     << warnings_fired_ << " warnings, " << revocations_fired_ << " revocations\n";
  for (int i = 0; i < cluster_.num_nodes(); ++i) {
    if (node_crashed(cluster_.node(i))) os << "  node" << i << " crashed\n";
  }
}

}  // namespace osap::fault
