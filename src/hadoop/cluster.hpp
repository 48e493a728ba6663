// Cluster: one-stop assembly of the full simulated stack.
//
// Builds the simulation, per-node kernels (OS model), the network, the
// JobTracker (on a dedicated master node) and one TaskTracker per worker
// node. This is the library's main entry point:
//
//   ClusterConfig cfg;            // defaults: one node, 4 GB RAM
//   Cluster cluster(cfg);
//   cluster.set_scheduler(std::make_unique<FifoScheduler>());
//   JobId j = cluster.submit(job_spec);    // now
//   cluster.submit_at(30.0, later_spec);   // a future arrival
//   cluster.run();
//   Duration sojourn = cluster.job_tracker().job(j).sojourn();
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "hadoop/config.hpp"
#include "hadoop/job_tracker.hpp"
#include "hadoop/task_tracker.hpp"
#include "net/network.hpp"
#include "os/kernel.hpp"
#include "sim/simulation.hpp"

namespace osap {

struct ClusterConfig {
  int num_nodes = 1;
  OsConfig os;
  HadoopConfig hadoop;
  NetConfig net;
  /// Runtime invariant auditing + livelock watchdog (on by default; flip
  /// `audit.enabled` off for large batch experiments).
  AuditConfig audit;
  /// Observability (src/trace): span tracing, counter dump destinations.
  /// Tracing is purely passive — enabling it never changes the digest.
  trace::TraceConfig trace;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] JobTracker& job_tracker() noexcept { return jt_; }
  [[nodiscard]] Network& network() noexcept { return net_; }

  [[nodiscard]] int num_nodes() const noexcept { return cfg_.num_nodes; }
  [[nodiscard]] NodeId node(int index) const;
  [[nodiscard]] Kernel& kernel(NodeId node);
  [[nodiscard]] TaskTracker& tracker(NodeId node);

  /// The scheduler must outlive all heartbeats; the cluster owns it.
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);
  [[nodiscard]] Scheduler* scheduler() noexcept { return scheduler_.get(); }

  JobId submit(JobSpec spec) { return jt_.submit_job(std::move(spec)); }
  /// Submit `spec` when the clock reaches `t`. The pending arrival is
  /// open work: run() does not return before it fires, even if every job
  /// submitted so far has already finished. Ids follow arrival order, so
  /// job_tracker().jobs_in_order() lists the jobs as they arrived.
  void submit_at(SimTime t, JobSpec spec);

  /// Fire `fn` once the task's live attempt reaches `fraction` progress
  /// (fine-grained poll; experiment instrumentation, not a Hadoop API).
  /// The watch joins a table on the cluster and is polled now, then every
  /// 100 ms until the task reaches the fraction or finishes first. Each
  /// poll event captures only the cluster and the watch's index, so it
  /// lives in the event's inline closure buffer; `fn` stays in
  /// the table. It is released once it fires, or at the first poll that
  /// finds the task done, and it may arm further watches.
  void watch_task_progress(TaskId id, double fraction, std::function<void()> fn);

  /// Run until the event queue drains (all jobs done) or `deadline`.
  void run();
  /// run() with a periodic passive hook: `tick` is called every few
  /// thousand fired events from inside the loop. It must not schedule
  /// events (tracing invariance: the digest is identical with or without
  /// a tick), but it may throw to abort the run — the osapd worker RSS
  /// watchdog aborts exactly this way and records the reason.
  void run(const std::function<void()>& tick);
  void run_until(SimTime t);

  /// Digest of the event stream executed so far (see Simulation).
  [[nodiscard]] std::uint64_t trace_digest() const noexcept { return sim_.trace_digest(); }

 private:
  /// One poll of watch `w`: fire, release or re-arm it.
  void poll_watch(std::size_t w);

  ClusterConfig cfg_;
  Simulation sim_;
  Network net_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
  std::vector<std::unique_ptr<TaskTracker>> trackers_;
  NodeId master_;
  JobTracker jt_;
  std::unique_ptr<Scheduler> scheduler_;
  /// submit_at arrivals not yet fired; run() does not return before they are.
  int pending_arrivals_ = 0;

  struct Watch {
    TaskId task;
    double fraction;
    std::function<void()> fn;  ///< empty once fired or released
  };
  /// Every watch ever armed, indexed by arming order; polls refer to one
  /// by index because a callback may arm another and grow the table.
  std::vector<Watch> watches_;
};

}  // namespace osap
