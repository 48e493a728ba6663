#include "hadoop/task_tracker.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "hadoop/job_tracker.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "tasktracker";
}

TaskTracker::TaskTracker(Simulation& sim, Kernel& kernel, Network& net, TrackerId id, NodeId node,
                         HadoopConfig cfg)
    : sim_(sim), kernel_(kernel), net_(net), id_(id), node_(node), cfg_(cfg) {
  sim_.audits().add(this);
  // Every periodic heartbeat re-arms after exactly this delay.
  sim_.declare_fixed_delay(cfg_.heartbeat_interval);
  tracer_ = &sim_.trace().tracer();
  trk_ = tracer_->track(kernel_.name(), "tasktracker");
  shuffle_trk_ = tracer_->track("cluster", "shuffle");
  trace::CounterRegistry& counters = sim_.trace().counters();
  ctr_heartbeats_ = &counters.counter(kernel_.name() + trace::names::kTtHeartbeatsSent);
  ctr_oob_heartbeats_ = &counters.counter(kernel_.name() + trace::names::kTtOobHeartbeats);
  ctr_actions_ = &counters.counter(kernel_.name() + trace::names::kTtActionsApplied);
}

TaskTracker::~TaskTracker() { sim_.audits().remove(this); }

void TaskTracker::connect(JobTracker& jt, NodeId master) {
  OSAP_CHECK_MSG(jt_ == nullptr, id_ << " connected twice");
  jt_ = &jt;
  master_ = master;
  OSAP_LOG(Debug, kLog) << id_ << " connected, heartbeating every " << cfg_.heartbeat_interval
                        << "s";
  // Stagger trackers slightly so heartbeats don't land in lockstep.
  const Duration phase = ms(37) * static_cast<double>(id_.value() % 16);
  hb_timer_ = sim_.after(phase, [this] { heartbeat(); });
}

int TaskTracker::held_slots(TaskType type) const noexcept {
  int held = 0;
  for (const auto& [tid, task] : live_) {
    if (task.type == type && !task.suspended) ++held;
  }
  return held;
}

int TaskTracker::free_map_slots() const noexcept {
  return std::max(0, cfg_.map_slots - held_slots(TaskType::Map));
}

int TaskTracker::free_reduce_slots() const noexcept {
  return std::max(0, cfg_.reduce_slots - held_slots(TaskType::Reduce));
}

int TaskTracker::suspended_tasks() const noexcept {
  int parked = 0;
  for (const auto& [tid, task] : live_) {
    if (task.suspended) ++parked;
  }
  return parked;
}

Pid TaskTracker::attempt_pid(TaskId id) const {
  const auto it = live_.find(id);
  return it == live_.end() ? Pid{} : it->second.pid;
}

double TaskTracker::attempt_progress(TaskId id) const {
  const auto it = live_.find(id);
  if (it == live_.end()) return 0;
  return kernel_.progress(it->second.pid);
}

void TaskTracker::heartbeat() {
  send_status(/*out_of_band=*/false);
  schedule_next_heartbeat();
}

void TaskTracker::schedule_next_heartbeat() {
  if (hb_timer_ != 0) sim_.cancel(hb_timer_);
  hb_timer_ = sim_.after(cfg_.heartbeat_interval, [this] { heartbeat(); });
}

void TaskTracker::send_status(bool out_of_band) {
  if (jt_ == nullptr || crashed_) return;
  // A wedged daemon assembles nothing: reports stay queued and flush on
  // the first heartbeat after the hang.
  if (hung_until_ > sim_.now()) return;
  TrackerStatus status;
  status.tracker = id_;
  status.node = node_;
  status.free_map_slots = free_map_slots();
  status.free_reduce_slots = free_reduce_slots();
  status.reports = std::move(pending_reports_);
  pending_reports_.clear();
  status.reports.reserve(status.reports.size() + live_.size());
  // Reports travel to the JobTracker in task-id order: the scheduler acts
  // on them in arrival order, so this order is part of the event stream.
  for (const auto& [tid, task] : live_) {
    if (task.in_cleanup) continue;
    TaskStatusReport report;
    report.task = tid;
    report.kind = ReportKind::Progress;
    report.progress = kernel_.progress(task.pid);
    report.swapped_out = kernel_.vmm().swapped_out_total(task.pid);
    report.swapped_in = kernel_.vmm().swapped_in_total(task.pid);
    status.reports.push_back(report);
  }
  sim_.trace().profiler().add(trace::HotPath::HeartbeatAssembly, status.reports.size());
  ctr_heartbeats_->add();
  if (out_of_band) ctr_oob_heartbeats_->add();
  // Round-trip span: ends when the JobTracker's response arrives. The
  // JobTracker responds to every heartbeat and per-pair delivery is FIFO,
  // so responses pair with sends in order.
  const std::uint64_t span = ++hb_seq_;
  tracer_->async_begin(trk_, out_of_band ? "oob_heartbeat" : "heartbeat", span,
                       {{"reports", static_cast<std::uint64_t>(status.reports.size())}});
  outstanding_hb_.emplace_back(span, out_of_band);
  net_.send(node_, master_, [jt = jt_, status = std::move(status)]() mutable {
    jt->on_heartbeat(std::move(status));
  });
  // Out-of-band heartbeats do not reset the periodic timer, matching
  // Hadoop's "status now, schedule stays" behaviour.
}

void TaskTracker::on_response(HeartbeatResponse response) {
  if (crashed_) return;  // in-flight response to a dead node
  if (!outstanding_hb_.empty()) {
    const auto [span, oob] = outstanding_hb_.front();
    outstanding_hb_.pop_front();
    tracer_->async_end(trk_, oob ? "oob_heartbeat" : "heartbeat", span,
                       {{"actions", static_cast<std::uint64_t>(response.actions.size())}});
  }
  for (const TaskAction& action : response.actions) apply(action);
}

void TaskTracker::deliver_actions(HeartbeatResponse response) {
  if (crashed_) return;
  for (const TaskAction& action : response.actions) apply(action);
}

void TaskTracker::crash() {
  if (crashed_) return;
  OSAP_LOG(Warn, kLog) << id_ << " crashed at t=" << sim_.now();
  crashed_ = true;
  if (hb_timer_ != 0) {
    sim_.cancel(hb_timer_);
    hb_timer_ = 0;
  }
  // Heartbeats in flight will never be answered usefully; close their
  // round-trip spans as aborted.
  for (const auto& [span, oob] : outstanding_hb_) {
    tracer_->async_end(trk_, oob ? "oob_heartbeat" : "heartbeat", span, {{"aborted", 1}});
  }
  outstanding_hb_.clear();
  pending_reports_.clear();
  teardown_attempts("node-crash");
}

void TaskTracker::hang(Duration duration) {
  if (crashed_ || duration <= 0) return;
  OSAP_LOG(Warn, kLog) << id_ << " daemon hangs for " << duration << "s at t=" << sim_.now();
  hung_until_ = std::max(hung_until_, sim_.now() + duration);
}

void TaskTracker::reinit() {
  OSAP_LOG(Warn, kLog) << id_ << " reinitializing (expired while alive)";
  pending_reports_.clear();
  teardown_attempts("reinit");
}

void TaskTracker::teardown_attempts(const char* outcome) {
  silent_teardown_ = true;
  teardown_outcome_ = outcome;
  // Each pass retires the lowest-id attempt left, so teardown runs in
  // task-id order.
  while (!live_.empty()) {
    const auto it = live_.begin();
    const TaskId tid = it->first;
    LiveTask& task = it->second;
    if (task.helper.valid()) {
      kernel_.signal(task.helper, Signal::Kill);
      task.helper = Pid{};
    }
    if (task.in_cleanup) {
      // The cleanup attempt's process is already gone (its finish_cleanup
      // timer finds nothing later).
      tracer_->async_end(trk_, "task", tid.value(), {{"outcome", outcome}});
      live_.erase(it);
      continue;
    }
    // SIGKILL works on running and stopped processes alike; on_exit runs
    // synchronously and takes the silent-teardown path in on_task_exit,
    // which erases the entry.
    kernel_.signal(task.pid, Signal::Kill);
    OSAP_CHECK_MSG(!live_.contains(tid), id_ << ": SIGKILL left " << tid << " hosted");
  }
  silent_teardown_ = false;
  teardown_outcome_ = "";
}

void TaskTracker::apply(const TaskAction& action) {
  ctr_actions_->add();
  tracer_->instant(trk_, to_string(action.kind), {{"task", action.task.value()}});
  OSAP_LOG(Debug, kLog) << id_ << ": action " << to_string(action.kind) << " for "
                        << action.task;
  switch (action.kind) {
    case ActionKind::Launch: launch(action); break;
    case ActionKind::Kill: do_kill(action.task); break;
    case ActionKind::Suspend: do_suspend(action.task); break;
    case ActionKind::Resume: do_resume(action.task); break;
    case ActionKind::CheckpointSuspend: do_checkpoint_suspend(action.task); break;
    case ActionKind::MapsDone: {
      // The reduce's shuffle inputs are complete: release its barrier so
      // the sort can begin. If the task is suspended the release is
      // remembered and takes effect on SIGCONT.
      tracer_->async_end(shuffle_trk_, "maps_done_delivery", action.task.value());
      const auto it = live_.find(action.task);
      if (it != live_.end()) kernel_.release_barrier(it->second.pid, "maps");
      break;
    }
    case ActionKind::ReinitTracker: reinit(); break;
  }
}

void TaskTracker::launch(const TaskAction& action) {
  OSAP_CHECK_MSG(!live_.contains(action.task), action.task << " already live on " << id_);
  LiveTask task;
  task.task = action.task;
  task.type = action.spec.type;
  task.state_memory = action.spec.state_memory;
  const TaskId tid = action.task;
  if (action.spec.streaming_helper_memory > 0 || action.spec.streaming_cpu_per_byte > 0) {
    // Hadoop Streaming: the external executable is a sibling process fed
    // through a pipe. It pauses naturally when the suspended task stops
    // feeding it; we model that by signalling it together with the task.
    // The helper never exits on its own: after draining its input it
    // blocks reading the pipe until the task closes it (modelled as a
    // barrier the TaskTracker releases by killing the helper on task
    // exit).
    task.helper = kernel_.spawn(
        ProgramBuilder(action.spec.name + "/pipe")
            .alloc("buffers", std::max<Bytes>(action.spec.streaming_helper_memory, 1 * MiB),
                   /*hot_after=*/true)
            .compute(static_cast<double>(action.spec.input_bytes) *
                     action.spec.streaming_cpu_per_byte)
            .barrier("eof")
            .build());
  }
  task.pid = kernel_.spawn(
      build_task_program(action.spec),
      ProcessHooks{
          .on_exit = [this, tid](ExitInfo info) { on_task_exit(tid, info); },
          .on_stopped =
              [this, tid] {
                auto it = live_.find(tid);
                if (it == live_.end()) return;
                // A checkpoint-suspend stops the process only to quiesce
                // it for serialization; the slot stays busy until the
                // state hits disk.
                if (it->second.checkpointing) return;
                // The slot frees as soon as the process stops: this is
                // what lets the high-priority task start immediately.
                it->second.suspended = true;
                queue_report(tid, ReportKind::Suspended);
                if (cfg_.oob_on_suspend) send_status(true);
              },
          .on_continued =
              [this, tid] {
                auto it = live_.find(tid);
                if (it == live_.end() || !it->second.suspended) return;
                it->second.suspended = false;
                queue_report(tid, ReportKind::Resumed);
              },
      });
  live_.emplace(tid, task);
  tracer_->async_begin(trk_, "task", tid.value(),
                       {{"name", action.spec.name},
                        {"type", task.type == TaskType::Map ? "map" : "reduce"}});
}

void TaskTracker::do_kill(TaskId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // completed in the meanwhile
  it->second.kill_requested = true;
  // The exit hook runs inside the SIGKILL and may erase the entry (a
  // checkpointing task leaves at once), so read it before signalling. A
  // helper the hook already reaped ignores the second signal.
  const Pid pid = it->second.pid;
  const Pid helper = it->second.helper;
  kernel_.signal(pid, Signal::Kill);
  if (helper.valid()) kernel_.signal(helper, Signal::Kill);
}

void TaskTracker::do_suspend(TaskId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // completed in the meanwhile
  kernel_.signal(it->second.pid, Signal::Tstp);
  // The streaming helper blocks on its pipe once the task stops writing;
  // stopping it explicitly has the same effect on the machine.
  if (it->second.helper.valid()) kernel_.signal(it->second.helper, Signal::Tstp);
}

void TaskTracker::do_resume(TaskId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  // SIGCONT runs the task's deferred work synchronously, which can finish
  // the task and erase its entry, so read it before signalling. A helper
  // the exit path already reaped ignores the SIGCONT.
  const Pid pid = it->second.pid;
  const Pid helper = it->second.helper;
  kernel_.signal(pid, Signal::Cont);
  if (helper.valid()) kernel_.signal(helper, Signal::Cont);
}

void TaskTracker::do_checkpoint_suspend(TaskId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // completed in the meanwhile
  LiveTask& task = it->second;
  task.checkpointing = true;
  task.checkpoint_progress = kernel_.progress(task.pid);
  // Stop the task, serialize its state (progress counters plus any
  // in-memory state) to local disk, then tear the JVM down. The slot stays
  // busy for the whole serialization — Natjam's ever-present overhead.
  kernel_.signal(task.pid, Signal::Tstp);
  const Bytes to_serialize = task.state_memory + 64 * KiB;  // counters at least
  const TaskId tid = id;
  kernel_.disk().start(IoClass::HdfsWrite, to_serialize, [this, tid] {
    auto lt = live_.find(tid);
    if (lt == live_.end()) return;
    kernel_.signal(lt->second.pid, Signal::Kill);
  });
}

void TaskTracker::on_task_exit(TaskId id, ExitInfo info) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  LiveTask& task = it->second;
  if (silent_teardown_) {
    // Crash / reinit teardown: forget the attempt without reporting —
    // a dead node reports nothing, and a reinitialized tracker's attempts
    // were already forfeited by the JobTracker.
    if (task.helper.valid()) kernel_.signal(task.helper, Signal::Kill);
    tracer_->async_end(trk_, "task", id.value(), {{"outcome", teardown_outcome_}});
    live_.erase(it);
    return;
  }
  if (task.helper.valid()) {
    // The pipe closes with the task: the helper sees EOF and exits.
    kernel_.signal(task.helper, Signal::Kill);
    task.helper = Pid{};
  }
  // Killed while parked: it held no slot, but the cleanup attempt needs
  // one.
  task.suspended = false;
  if (info.reason == ExitReason::Finished) {
    queue_report(id, ReportKind::Succeeded);
    tracer_->async_end(trk_, "task", id.value(), {{"outcome", "succeeded"}});
    live_.erase(it);
    send_status(true);
    return;
  }
  if (task.checkpointing) {
    // Natjam suspend complete: the JVM is gone, the checkpoint is on
    // disk. Report the saved progress so the relaunch can fast-forward.
    TaskStatusReport report;
    report.task = id;
    report.kind = ReportKind::Checkpointed;
    report.progress = task.checkpoint_progress;
    report.swapped_out = kernel_.vmm().swapped_out_total(task.pid);
    report.swapped_in = kernel_.vmm().swapped_in_total(task.pid);
    pending_reports_.push_back(report);
    tracer_->async_end(trk_, "task", id.value(), {{"outcome", "checkpointed"}});
    live_.erase(it);
    send_status(true);
    return;
  }
  if (task.kill_requested) {
    // "kill runs a cleanup task to remove temporary outputs of the killed
    // task": the slot stays busy until the cleanup attempt completes.
    task.in_cleanup = true;
    const TaskId tid = id;
    sim_.after(cfg_.kill_cleanup_duration, [this, tid] { finish_cleanup(tid); });
    return;
  }
  // Died without being asked to (OOM killer): report failure.
  queue_report(id, ReportKind::Failed);
  tracer_->async_end(trk_, "task", id.value(), {{"outcome", "failed"}});
  live_.erase(it);
  send_status(true);
}

void TaskTracker::finish_cleanup(TaskId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;
  queue_report(id, ReportKind::KilledAck);
  tracer_->async_end(trk_, "task", id.value(), {{"outcome", "killed"}});
  live_.erase(it);
  send_status(true);
}

void TaskTracker::queue_report(TaskId id, ReportKind kind) {
  TaskStatusReport report;
  report.task = id;
  report.kind = kind;
  const Pid pid = attempt_pid(id);
  report.progress = kind == ReportKind::Succeeded ? 1.0
                    : pid.valid()                 ? kernel_.progress(pid)
                                                  : 0;
  if (pid.valid()) {
    // Paging totals survive process exit in the VMM, so completion
    // reports still carry them (Fig. 4's per-task swap metric).
    report.swapped_out = kernel_.vmm().swapped_out_total(pid);
    report.swapped_in = kernel_.vmm().swapped_in_total(pid);
  }
  pending_reports_.push_back(report);
}

std::string TaskTracker::audit_label() const {
  std::ostringstream os;
  os << id_;
  return os.str();
}

void TaskTracker::audit(std::vector<std::string>& violations) const {
  const auto flag = [&violations](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    violations.push_back(os.str());
  };
  if (crashed_ && !live_.empty()) {
    flag("crashed tracker still hosts ", live_.size(), " attempts");
  }
  for (const auto& [tid, task] : live_) {
    const Process* p = kernel_.find(task.pid);
    if (task.in_cleanup) {
      if (p != nullptr) flag(tid, " is in cleanup but its process still exists");
      continue;
    }
    if (p == nullptr) {
      flag(tid, " is live but has no process (pid ", task.pid, ")");
    } else if (task.suspended && p->state() != ProcState::Stopped) {
      flag(tid, " counted as suspended but its process is ", to_string(p->state()));
    }
  }
}

void TaskTracker::dump(std::ostream& os) const {
  os << id_ << " on " << node_ << ": " << held_slots(TaskType::Map) << "/" << cfg_.map_slots
     << " map slots, " << held_slots(TaskType::Reduce) << "/" << cfg_.reduce_slots
     << " reduce slots, " << suspended_tasks() << " suspended, " << live_.size()
     << " live tasks";
  if (crashed_) os << " [CRASHED]";
  if (hung_until_ > 0) os << " [hung until t=" << hung_until_ << "]";
  os << '\n';
  for (const auto& [tid, task] : live_) {
    const Process* p = kernel_.find(task.pid);
    os << "  " << tid << ' ' << to_string(task.type) << " pid=" << task.pid << " proc="
       << (p == nullptr ? "<gone>" : to_string(p->state()));
    if (task.suspended) os << " suspended";
    if (task.checkpointing) os << " checkpointing";
    if (task.in_cleanup) os << " cleanup";
    if (task.helper.valid()) os << " helper=" << task.helper;
    os << '\n';
  }
}

}  // namespace osap
