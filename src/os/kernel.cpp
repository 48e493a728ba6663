#include "os/kernel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "kernel";
}

Kernel::Kernel(Simulation& sim, OsConfig cfg, std::string name)
    : sim_(sim),
      cfg_(cfg),
      name_(std::move(name)),
      cpu_(sim, static_cast<double>(cfg.cores), name_ + ".cpu"),
      disk_(sim, cfg.disk_bandwidth, cfg.disk_seek, name_ + ".disk"),
      vmm_(sim, disk_, cfg, name_ + ".vmm") {
  vmm_.set_oom_handler([this] { handle_oom(); });
  sim_.audits().add(this);
  tracer_ = &sim_.trace().tracer();
  trk_ = tracer_->track(name_, "kernel");
  trace::CounterRegistry& counters = sim_.trace().counters();
  ctr_spawned_ = &counters.counter(name_ + trace::names::kKernelSpawned);
  ctr_signals_ = &counters.counter(name_ + trace::names::kKernelSignals);
  ctr_oom_kills_ = &counters.counter(name_ + trace::names::kKernelOomKills);
}

Kernel::~Kernel() { sim_.audits().remove(this); }

Process* Kernel::find(Pid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

const Process* Kernel::find(Pid pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

Pid Kernel::spawn(Program program, ProcessHooks hooks) {
  mark_audit_dirty();
  const Pid pid = pids_.next();
  auto proc = std::make_unique<Process>(pid, std::move(program), std::move(hooks));
  proc->total_weight_ = proc->program_.total_weight();
  vmm_.register_process(pid);
  Process* raw = proc.get();
  procs_.emplace(pid, std::move(proc));
  ctr_spawned_->add();
  tracer_->instant(trk_, "spawn", {{"pid", pid.value()}, {"name", raw->name()}});
  OSAP_LOG(Debug, kLog) << name_ << ": spawned " << pid << " (" << raw->name() << ")";
  // First phase starts on a fresh event so hooks never fire inside spawn().
  sim_.after(0, [this, pid] {
    Process* p = find(pid);
    if (p != nullptr) start_phase(*p);
  });
  return pid;
}

void Kernel::signal(Pid pid, Signal sig) {
  Process* p = find(pid);
  if (p == nullptr || p->state_ == ProcState::Zombie) return;  // ESRCH
  ctr_signals_->add();
  OSAP_LOG(Debug, kLog) << name_ << ": " << to_string(sig) << " -> " << pid << " ("
                        << to_string(p->state_) << ")";
  switch (sig) {
    case Signal::Tstp:
      deliver_tstp(*p);
      break;
    case Signal::Cont:
      deliver_cont(*p);
      break;
    case Signal::Kill:
    case Signal::Term:
      terminate(pid, ExitReason::Killed);
      break;
  }
}

void Kernel::deliver_tstp(Process& p) {
  if (p.state_ != ProcState::Running) return;  // already stopping/stopped
  mark_audit_dirty();
  p.state_ = ProcState::Stopping;
  const std::uint64_t gen = ++p.signal_gen_;
  const Pid pid = p.pid_;
  tracer_->async_begin(trk_, "sigtstp_window", pid.value(), {{"pid", pid.value()}});
  // The handler window: the task's SIGTSTP handler tidies external state
  // (network connections, streaming pipes) before the stop takes effect.
  sim_.after(cfg_.sigtstp_handler_delay, [this, pid, gen] {
    Process* p = find(pid);
    if (p == nullptr || p->signal_gen_ != gen || p->state_ != ProcState::Stopping) return;
    mark_audit_dirty();
    p->state_ = ProcState::Stopped;
    pause_legs(*p);
    vmm_.set_stopped(pid, true);
    tracer_->async_end(trk_, "sigtstp_window", pid.value());
    tracer_->async_begin(trk_, "stopped", pid.value(), {{"pid", pid.value()}});
    OSAP_LOG(Debug, kLog) << name_ << ": " << pid << " stopped";
    if (p->hooks_.on_stopped) p->hooks_.on_stopped();
  });
}

void Kernel::deliver_cont(Process& p) {
  if (p.state_ == ProcState::Stopping) {
    // SIGCONT raced the handler window: the stop never materializes.
    mark_audit_dirty();
    ++p.signal_gen_;
    p.state_ = ProcState::Running;
    tracer_->async_end(trk_, "sigtstp_window", p.pid_.value(), {{"cancelled", 1}});
    return;
  }
  if (p.state_ != ProcState::Stopped) return;
  mark_audit_dirty();
  p.state_ = ProcState::Running;
  vmm_.set_stopped(p.pid_, false);
  tracer_->async_end(trk_, "stopped", p.pid_.value());
  resume_legs(p);
  auto deferred = std::move(p.deferred_);
  p.deferred_.clear();
  if (p.hooks_.on_continued) p.hooks_.on_continued();
  for (auto& fn : deferred) fn();
}

void Kernel::terminate(Pid pid, ExitReason reason) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) return;
  mark_audit_dirty();
  // Take ownership so the exit hook can safely re-enter the kernel.
  std::unique_ptr<Process> p = std::move(it->second);
  procs_.erase(it);
  // Close any suspend-protocol span left open by a mid-cycle kill.
  if (p->state_ == ProcState::Stopping) {
    tracer_->async_end(trk_, "sigtstp_window", pid.value(), {{"killed", 1}});
  } else if (p->state_ == ProcState::Stopped) {
    tracer_->async_end(trk_, "stopped", pid.value(), {{"killed", 1}});
  }
  ++p->signal_gen_;
  cpu_.cancel(p->run_.cpu);
  disk_.cancel(p->run_.disk);
  if (p->run_.sleep_timer != 0) sim_.cancel(p->run_.sleep_timer);
  vmm_.release_process(pid);
  p->state_ = ProcState::Zombie;
  tracer_->instant(trk_, "exit",
                   {{"pid", pid.value()},
                    {"reason", reason == ExitReason::Finished ? "finished" : "killed"}});
  OSAP_LOG(Debug, kLog) << name_ << ": " << pid << " exited ("
                        << (reason == ExitReason::Finished ? "finished" : "killed") << ")";
  if (p->hooks_.on_exit) p->hooks_.on_exit(ExitInfo{reason});
}

void Kernel::pause_legs(Process& p) {
  cpu_.pause(p.run_.cpu);
  disk_.pause(p.run_.disk);
  if (p.run_.sleep_timer != 0) {
    sim_.cancel(p.run_.sleep_timer);
    p.run_.sleep_timer = 0;
    p.run_.sleep_left = std::max(0.0, p.run_.sleep_wake_at - sim_.now());
  }
}

void Kernel::resume_legs(Process& p) {
  cpu_.resume(p.run_.cpu);
  disk_.resume(p.run_.disk);
  if (p.run_.sleep_left > 0) {
    const Pid pid = p.pid_;
    p.run_.sleep_wake_at = sim_.now() + p.run_.sleep_left;
    p.run_.sleep_timer = sim_.after(p.run_.sleep_left, [this, pid] {
      Process* q = find(pid);
      if (q == nullptr) return;
      q->run_.sleep_timer = 0;
      q->run_.sleep_left = 0;
      leg_done(pid);
    });
    p.run_.sleep_left = 0;
  }
}

void Kernel::run_or_defer(Pid pid, std::function<void()> fn) {
  Process* p = find(pid);
  if (p == nullptr) return;
  if (p->state_ == ProcState::Stopped) {
    mark_audit_dirty();
    p->deferred_.push_back(std::move(fn));
  } else {
    fn();
  }
}

RegionId Kernel::region_of(Process& p, const std::string& name, bool create) {
  const RegionId rid = vmm_.find_region(p.pid_, name);
  if (rid.valid()) return rid;
  OSAP_CHECK_MSG(create, p.name() << " touches unknown region '" << name << "'");
  mark_audit_dirty();
  return vmm_.create_region(p.pid_, name);
}

void Kernel::leg_done(Pid pid) {
  run_or_defer(pid, [this, pid] {
    Process* p = find(pid);
    if (p == nullptr) return;
    mark_audit_dirty();
    OSAP_CHECK(p->run_.outstanding > 0);
    if (--p->run_.outstanding == 0) advance(*p);
  });
}

void Kernel::advance(Process& p) {
  mark_audit_dirty();
  // Phase epilogue.
  const Phase& phase = p.program_.phases[p.phase_idx_];
  if (const auto* alloc = std::get_if<AllocPhase>(&phase)) {
    vmm_.mark_hot(region_of(p, alloc->region, false), alloc->hot_after);
  }
  std::visit([&p](const auto& ph) {
    if constexpr (requires { ph.weight; }) p.weight_done_ += ph.weight;
  }, phase);

  ++p.phase_idx_;
  p.run_ = Process::PhaseRun{};
  start_phase(p);
}

void Kernel::start_phase(Process& p) {
  if (p.phase_idx_ >= p.program_.phases.size()) {
    terminate(p.pid_, ExitReason::Finished);
    return;
  }
  mark_audit_dirty();
  const Pid pid = p.pid_;
  const Phase& phase = p.program_.phases[p.phase_idx_];

  if (const auto* c = std::get_if<ComputePhase>(&phase)) {
    p.run_.outstanding = 1;
    p.run_.cpu_demand = c->cpu_seconds;
    p.run_.cpu = cpu_.add(c->cpu_seconds, 1.0, [this, pid] { leg_done(pid); });

  } else if (const auto* a = std::get_if<AllocPhase>(&phase)) {
    const RegionId rid = region_of(p, a->region, true);
    vmm_.mark_hot(rid, true);
    p.run_.outstanding = 2;
    p.run_.cpu_demand = static_cast<double>(a->bytes) * cfg_.touch_cpu_per_byte;
    p.run_.cpu = cpu_.add(p.run_.cpu_demand, 1.0, [this, pid] { leg_done(pid); });
    vmm_.commit(rid, a->bytes, [this, pid] { leg_done(pid); });

  } else if (const auto* r = std::get_if<ReadParsePhase>(&phase)) {
    p.run_.outstanding = 2;
    p.run_.cpu_demand = static_cast<double>(r->bytes) * r->cpu_per_byte;
    p.run_.cpu = cpu_.add(p.run_.cpu_demand, 1.0, [this, pid] { leg_done(pid); });
    // The read happens in io_chunk pieces so the file-system cache grows
    // as data streams in (and becomes reclaimable ballast).
    const bool populate = r->populate_fs_cache;
    // Each chunk's continuation carries a copy of this lambda; a shared
    // self-referencing std::function would cycle and never free.
    auto read_next = [this, pid, populate](auto self, Bytes left) -> void {
      Process* q = find(pid);
      if (q == nullptr) return;
      if (left == 0) {
        q->run_.disk = 0;
        leg_done(pid);
        return;
      }
      const Bytes chunk = std::min<Bytes>(left, cfg_.io_chunk);
      q->run_.disk =
          disk_.start(IoClass::HdfsRead, chunk, [this, pid, populate, self, left, chunk] {
            if (populate) vmm_.fs_cache_insert(chunk);
            run_or_defer(pid, [self, left, chunk] { self(self, left - chunk); });
          });
    };
    read_next(read_next, r->bytes);

  } else if (const auto* t = std::get_if<TouchPhase>(&phase)) {
    const RegionId rid = region_of(p, t->region, false);
    vmm_.mark_hot(rid, true);
    if (t->write) vmm_.dirty_resident(rid);
    p.run_.outstanding = 2;
    const Bytes extent = vmm_.region_resident(rid) + vmm_.region_swapped(rid);
    p.run_.cpu_demand = static_cast<double>(extent) * cfg_.touch_cpu_per_byte;
    p.run_.cpu = cpu_.add(p.run_.cpu_demand, 1.0, [this, pid] { leg_done(pid); });
    vmm_.page_in(rid, t->write, [this, pid] { leg_done(pid); });

  } else if (const auto* w = std::get_if<WriteOutPhase>(&phase)) {
    p.run_.outstanding = 1;
    p.run_.disk = disk_.start(IoClass::HdfsWrite, w->bytes, [this, pid] {
      Process* q = find(pid);
      if (q != nullptr) q->run_.disk = 0;
      leg_done(pid);
    });

  } else if (const auto* s = std::get_if<SleepPhase>(&phase)) {
    p.run_.outstanding = 1;
    p.run_.sleep_wake_at = sim_.now() + s->duration;
    p.run_.sleep_timer = sim_.after(s->duration, [this, pid] {
      Process* q = find(pid);
      if (q == nullptr) return;
      q->run_.sleep_timer = 0;
      leg_done(pid);
    });

  } else if (const auto* f = std::get_if<FreePhase>(&phase)) {
    const RegionId rid = region_of(p, f->region, false);
    const Bytes all = vmm_.region_resident(rid) + vmm_.region_swapped(rid);
    vmm_.release(rid, f->bytes == 0 ? all : f->bytes);
    advance(p);

  } else if (const auto* b = std::get_if<BarrierPhase>(&phase)) {
    if (std::find(p.released_barriers_.begin(), p.released_barriers_.end(), b->name) !=
        p.released_barriers_.end()) {
      advance(p);
      return;
    }
    // Park without scheduling anything: the release is the only wake-up.
    p.run_.outstanding = 1;
    p.run_.waiting_barrier = b->name;
  }
}

void Kernel::release_barrier(Pid pid, const std::string& name) {
  Process* p = find(pid);
  if (p == nullptr) return;
  if (std::find(p->released_barriers_.begin(), p->released_barriers_.end(), name) !=
      p->released_barriers_.end()) {
    return;
  }
  mark_audit_dirty();
  p->released_barriers_.push_back(name);
  if (p->run_.waiting_barrier == name) {
    p->run_.waiting_barrier.clear();
    leg_done(pid);  // defers until SIGCONT if the process is stopped
  }
}

double Kernel::progress(Pid pid) const {
  const Process* p = find(pid);
  if (p == nullptr) return 0;
  if (p->phase_idx_ >= p->program_.phases.size()) return 1.0;
  double current_weight = 0;
  std::visit([&](const auto& ph) {
    if constexpr (requires { ph.weight; }) current_weight = ph.weight;
  }, p->program_.phases[p->phase_idx_]);
  double frac = 0;
  if (p->run_.cpu_demand > 0) {
    frac = 1.0 - cpu_.remaining(p->run_.cpu) / p->run_.cpu_demand;
    frac = std::clamp(frac, 0.0, 1.0);
  }
  if (p->total_weight_ <= 0) {
    // No weights declared: fall back to phase-count completion.
    return (static_cast<double>(p->phase_idx_) + frac) /
           static_cast<double>(p->program_.phases.size());
  }
  return (p->weight_done_ + current_weight * frac) / p->total_weight_;
}

void Kernel::audit(std::vector<std::string>& violations) const {
  for (const auto& [pid, proc] : procs_) {
    const Process& p = *proc;
    if (p.state_ == ProcState::Zombie) {
      std::ostringstream os;
      os << pid << " (" << p.name() << ") is a zombie in the process table";
      violations.push_back(os.str());
    }
    const bool vmm_stopped = vmm_.is_stopped(pid);
    if (vmm_stopped != (p.state_ == ProcState::Stopped)) {
      std::ostringstream os;
      os << pid << " (" << p.name() << ") is " << to_string(p.state_)
         << " but the VMM stopped flag is " << (vmm_stopped ? "set" : "clear");
      violations.push_back(os.str());
    }
    if (p.run_.outstanding < 0) {
      std::ostringstream os;
      os << pid << " (" << p.name() << ") has " << p.run_.outstanding << " outstanding legs";
      violations.push_back(os.str());
    }
    if (p.phase_idx_ > p.program_.phases.size()) {
      std::ostringstream os;
      os << pid << " (" << p.name() << ") is at phase " << p.phase_idx_ << " of "
         << p.program_.phases.size();
      violations.push_back(os.str());
    }
    if (!p.run_.waiting_barrier.empty() && p.run_.outstanding != 1) {
      std::ostringstream os;
      os << pid << " (" << p.name() << ") waits on barrier '" << p.run_.waiting_barrier
         << "' with " << p.run_.outstanding << " outstanding legs";
      violations.push_back(os.str());
    }
  }
}

void Kernel::dump(std::ostream& os) const {
  os << procs_.size() << " processes\n";
  for (const auto& [pid, proc] : procs_) {
    const Process& p = *proc;
    os << "  " << pid << " " << p.name() << " [" << to_string(p.state_) << "] phase "
       << p.phase_idx_ << "/" << p.program_.phases.size() << " progress "
       << progress(pid) << " outstanding " << p.run_.outstanding;
    if (!p.run_.waiting_barrier.empty()) os << " barrier '" << p.run_.waiting_barrier << "'";
    os << "\n";
  }
}

void Kernel::handle_oom() {
  // Linux-like badness: kill the process holding the most memory; ties go
  // to the lowest pid (the first in the table's order).
  Pid victim;
  Bytes worst = 0;
  for (const auto& [pid, proc] : procs_) {
    const Bytes held = vmm_.resident(pid);
    if (held > worst) {
      worst = held;
      victim = pid;
    }
  }
  OSAP_CHECK_MSG(victim.valid() && worst > 0, "OOM with no killable process on " << name_);
  ctr_oom_kills_->add();
  tracer_->instant(trk_, "oom_kill", {{"pid", victim.value()}, {"resident_bytes", worst}});
  OSAP_LOG(Warn, kLog) << name_ << ": OOM killer chose " << victim << " holding "
                       << format_bytes(worst);
  terminate(victim, ExitReason::OomKilled);
}

}  // namespace osap
