#include "policy/policy.hpp"

#include <utility>

#include "hadoop/job_tracker.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap::policy {

PreemptionPolicy::PreemptionPolicy(JobTracker& jt, PreemptPrimitive default_primitive,
                                   PolicyOptions options)
    : jt_(&jt),
      preemptor_(jt),
      default_primitive_(default_primitive),
      options_(std::move(options)) {
  trace::CounterRegistry& reg = jt_->sim().trace().counters();
  ctr_decisions_ = &reg.counter(trace::names::kPolicyDecisions);
  ctr_waits_ = &reg.counter(trace::names::kPolicyWaits);
  ctr_kills_ = &reg.counter(trace::names::kPolicyKills);
  ctr_suspends_ = &reg.counter(trace::names::kPolicySuspends);
  ctr_checkpoints_ = &reg.counter(trace::names::kPolicyCheckpoints);
  ctr_requeues_ = &reg.counter(trace::names::kPolicyRequeues);
  ctr_demotions_ = &reg.counter(trace::names::kPolicySwapDemotions);
  ctr_refused_ = &reg.counter(trace::names::kPolicyOrdersRefused);
}

PreemptPrimitive PreemptionPolicy::rule_for(const std::string& queue) const {
  for (const auto& [name, primitive] : options_.per_queue) {
    if (name == queue) return primitive;
  }
  return default_primitive_;
}

PreemptPrimitive PreemptionPolicy::decide(TaskId victim) const {
  const Task& t = jt_->task(victim);
  PreemptPrimitive primitive = rule_for(jt_->job(t.job).spec.queue);
  if ((primitive == PreemptPrimitive::Suspend ||
       primitive == PreemptPrimitive::NatjamCheckpoint) &&
      options_.probe && t.node.valid() &&
      options_.probe(t.node) >= options_.swap_watermark) {
    primitive = PreemptPrimitive::Kill;
  }
  return primitive;
}

Outcome PreemptionPolicy::preempt(TaskId victim) {
  Outcome out;
  out.primitive = decide(victim);
  ctr_decisions_->add();
  // decide() only demotes; comparing against the raw rule tells demotion.
  if (out.primitive == PreemptPrimitive::Kill &&
      rule_for(jt_->job(jt_->task(victim).job).spec.queue) != PreemptPrimitive::Kill) {
    ctr_demotions_->add();
  }
  switch (out.primitive) {
    case PreemptPrimitive::Wait: ctr_waits_->add(); break;
    case PreemptPrimitive::Kill: ctr_kills_->add(); break;
    case PreemptPrimitive::Suspend: ctr_suspends_->add(); break;
    case PreemptPrimitive::NatjamCheckpoint: ctr_checkpoints_->add(); break;
    case PreemptPrimitive::Requeue: ctr_requeues_->add(); break;
  }
  out.issued = preemptor_.preempt(victim, out.primitive);
  if (!out.issued) ctr_refused_->add();
  return out;
}

}  // namespace osap::policy
