#include "hadoop/cluster.hpp"

#include <fstream>
#include <utility>

#include "common/error.hpp"

namespace osap {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      net_(sim_, cfg.net),
      namenode_(cfg.hdfs, cfg.seed),
      master_(NodeId{static_cast<std::uint64_t>(cfg.num_nodes)}),
      jt_(sim_, net_, master_, cfg.hadoop) {
  OSAP_CHECK(cfg_.num_nodes >= 1);
  sim_.set_audit_config(cfg_.audit);
  sim_.trace().configure(cfg_.trace);
  net_.register_node(master_);
  for (int i = 0; i < cfg_.num_nodes; ++i) {
    const NodeId node{static_cast<std::uint64_t>(i)};
    net_.register_node(node);
    namenode_.add_datanode(node);
    kernels_.push_back(
        std::make_unique<Kernel>(sim_, cfg_.os, "node" + std::to_string(i)));
    trackers_.push_back(std::make_unique<TaskTracker>(
        sim_, *kernels_.back(), net_, TrackerId{static_cast<std::uint64_t>(i)}, node,
        cfg_.hadoop));
    jt_.register_tracker(*trackers_.back());
    trackers_.back()->connect(jt_, master_);
  }
}

NodeId Cluster::node(int index) const {
  OSAP_CHECK(index >= 0 && index < cfg_.num_nodes);
  return NodeId{static_cast<std::uint64_t>(index)};
}

Kernel& Cluster::kernel(NodeId node) {
  OSAP_CHECK_MSG(node.value() < kernels_.size(), "unknown " << node);
  return *kernels_[node.value()];
}

TaskTracker& Cluster::tracker(NodeId node) {
  OSAP_CHECK_MSG(node.value() < trackers_.size(), "unknown " << node);
  return *trackers_[node.value()];
}

void Cluster::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  scheduler_ = std::move(scheduler);
  jt_.set_scheduler(scheduler_.get());
}

void Cluster::submit_at(SimTime t, JobSpec spec) {
  ++pending_arrivals_;
  sim_.at(t, [this, spec = std::move(spec)]() mutable {
    jt_.submit_job(std::move(spec));
    --pending_arrivals_;
  });
}

std::vector<BlockId> Cluster::create_input(const std::string& name, Bytes size, NodeId writer) {
  const FileId file = namenode_.create_file(name, size, writer);
  return namenode_.file(file).blocks;
}

void Cluster::watch_task_progress(TaskId id, double fraction, std::function<void()> fn) {
  watches_.push_back(Watch{id, fraction, std::move(fn)});
  sim_.after(0, [this, w = watches_.size() - 1] { poll_watch(w); });
}

void Cluster::poll_watch(std::size_t w) {
  Watch& watch = watches_[w];
  const Task& t = jt_.task(watch.task);
  if (t.done()) {
    watch.fn = nullptr;  // finished before the threshold: never fires
    return;
  }
  double progress = t.progress;
  // Prefer the live attempt's instantaneous progress over the last
  // heartbeat snapshot.
  if (t.tracker.valid()) {
    TaskTracker* tt = jt_.tracker(t.tracker);
    if (tt != nullptr && tt->hosts_task(watch.task)) progress = tt->attempt_progress(watch.task);
  }
  if (progress >= watch.fraction) {
    // Out of the table first: the callback may arm a watch, and the
    // table's growth would move `watch`.
    const std::function<void()> fn = std::exchange(watch.fn, nullptr);
    fn();
    return;
  }
  sim_.after(ms(100), [this, w] { poll_watch(w); });
}

void Cluster::run() { run(std::function<void()>()); }

void Cluster::run(const std::function<void()>& tick) {
  // Heartbeat timers re-arm forever, so "queue empty" never happens; stop
  // once every submitted job has completed AND no submit_at arrival is
  // still pending. (A trigger submits its job while an earlier one still
  // runs, so run() cannot stop before it.)
  std::uint64_t fired = 0;
  while (!(!jt_.jobs_in_order().empty() && jt_.all_jobs_done() && pending_arrivals_ == 0) &&
         sim_.step()) {
    // The tick stride is in fired events, not time, so it is identical
    // across runs; the hook itself never touches simulation state.
    if (tick && (++fired & 0x7ff) == 0) tick();
  }
  const trace::TraceConfig& tc = sim_.trace().config();
  if (!tc.trace_file.empty()) {
    std::ofstream out(tc.trace_file);
    OSAP_CHECK_MSG(out.good(), "cannot open trace file " << tc.trace_file);
    sim_.trace().tracer().write_json(out);
  }
  if (!tc.counters_file.empty()) {
    std::ofstream out(tc.counters_file);
    OSAP_CHECK_MSG(out.good(), "cannot open counters file " << tc.counters_file);
    sim_.write_observability_json(out);
  }
}

void Cluster::run_until(SimTime t) { sim_.run_until(t); }

}  // namespace osap
