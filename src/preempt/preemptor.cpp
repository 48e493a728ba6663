#include "preempt/preemptor.hpp"

#include <utility>

#include "common/error.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap {

const char* to_string(PreemptPrimitive p) noexcept {
  switch (p) {
    case PreemptPrimitive::Wait: return "wait";
    case PreemptPrimitive::Kill: return "kill";
    case PreemptPrimitive::Suspend: return "susp";
    case PreemptPrimitive::NatjamCheckpoint: return "natjam";
    case PreemptPrimitive::Requeue: return "requeue";
  }
  return "?";
}

PreemptPrimitive parse_primitive(std::string_view name) {
  if (name == "wait") return PreemptPrimitive::Wait;
  if (name == "kill") return PreemptPrimitive::Kill;
  if (name == "susp" || name == "suspend") return PreemptPrimitive::Suspend;
  if (name == "natjam" || name == "checkpoint") return PreemptPrimitive::NatjamCheckpoint;
  if (name == "requeue") return PreemptPrimitive::Requeue;
  throw SimError("unknown preemption primitive '" + std::string(name) +
                 "' (expected one of: " + kPrimitiveSpellings + ")");
}

bool Preemptor::preempt(TaskId victim, PreemptPrimitive primitive) {
  trace::Tracer& tracer = jt_->sim().trace().tracer();
  tracer.instant(tracer.track("cluster", "preemptor"), trace::names::kInstPreempt,
                 {{"primitive", to_string(primitive)}, {"task", victim.value()}});
  // A suspend-family order aimed at a lost or blacklisted tracker is a
  // no-op: the parked JVM would die with its node (lost) or never be
  // resumed (blacklisted — the tracker gets no new work, so the freed
  // slot buys nothing). Refuse it so schedulers pick another victim
  // instead of burning their per-heartbeat budget on dead orders. Kill
  // stays allowed — getting work off a failing tracker is the point.
  if (primitive == PreemptPrimitive::Suspend ||
      primitive == PreemptPrimitive::NatjamCheckpoint) {
    const TrackerId tracker = jt_->task(victim).tracker;
    if (tracker.valid() &&
        (jt_->tracker_lost(tracker) || jt_->tracker_blacklisted(tracker))) {
      tracer.instant(tracer.track("cluster", "preemptor"), trace::names::kInstPreemptRefused,
                     {{"primitive", to_string(primitive)}, {"task", victim.value()}});
      return false;
    }
  }
  switch (primitive) {
    case PreemptPrimitive::Wait:
      return true;  // deliberately do nothing
    case PreemptPrimitive::Kill:
      return jt_->kill_task(victim);
    case PreemptPrimitive::Suspend:
      return jt_->suspend_task(victim);
    case PreemptPrimitive::NatjamCheckpoint:
      return jt_->checkpoint_suspend_task(victim);
    case PreemptPrimitive::Requeue: {
      TaskSpec spec = jt_->task(victim).spec;
      spec.preferred_node = NodeId{};
      jt_->set_task_spec(victim, std::move(spec));
      return jt_->kill_task(victim);
    }
  }
  return false;
}

bool Preemptor::restore(TaskId victim, PreemptPrimitive primitive) {
  trace::Tracer& tracer = jt_->sim().trace().tracer();
  tracer.instant(tracer.track("cluster", "preemptor"), trace::names::kInstRestore,
                 {{"primitive", to_string(primitive)}, {"task", victim.value()}});
  switch (primitive) {
    case PreemptPrimitive::Wait:
    case PreemptPrimitive::Kill:
    case PreemptPrimitive::Requeue:
      return true;  // rescheduling happens through the normal task pool
    case PreemptPrimitive::Suspend:
    case PreemptPrimitive::NatjamCheckpoint: {
      const Task& t = jt_->task(victim);
      if (t.done()) return true;  // completed before the restore
      if (t.state == TaskState::MustSuspend) {
        // Restore raced the suspension command; the resume will be
        // rejected until the ack arrives. Callers retry on heartbeat.
        return false;
      }
      return jt_->resume_task(victim);
    }
  }
  return false;
}

}  // namespace osap
