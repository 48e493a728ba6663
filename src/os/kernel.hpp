// Per-node kernel: process table, CPU scheduling, signal delivery and the
// phase interpreter that couples programs to the CPU, the disk and the VMM.
//
// The CPU is a processor-sharing FluidResource with per-process caps of
// one core; the single spindle carries HDFS I/O and swap traffic; the VMM
// implements watermark reclaim. Signal semantics follow §III-B: SIGTSTP is
// catchable, so a short handler window elapses before the process stops
// (and a SIGCONT inside that window cancels the stop); SIGKILL tears the
// process down immediately, dropping its anonymous memory.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "audit/audit.hpp"
#include "common/ids.hpp"
#include "os/config.hpp"
#include "os/disk.hpp"
#include "os/process.hpp"
#include "os/program.hpp"
#include "os/vmm.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/simulation.hpp"

namespace osap {

class Kernel final : public InvariantAuditor {
 public:
  Kernel(Simulation& sim, OsConfig cfg, std::string name);
  ~Kernel() override;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Fork+exec a child running `program`. The child starts immediately.
  Pid spawn(Program program, ProcessHooks hooks = {});

  /// POSIX-style signal delivery. Unknown pids are ignored (ESRCH).
  void signal(Pid pid, Signal sig);

  [[nodiscard]] bool alive(Pid pid) const { return procs_.contains(pid); }
  [[nodiscard]] Process* find(Pid pid);
  [[nodiscard]] const Process* find(Pid pid) const;
  [[nodiscard]] std::size_t process_count() const noexcept { return procs_.size(); }

  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] Disk& disk() noexcept { return disk_; }
  [[nodiscard]] Vmm& vmm() noexcept { return vmm_; }
  [[nodiscard]] const Vmm& vmm() const noexcept { return vmm_; }
  [[nodiscard]] const OsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Weighted completion of a process's program in [0,1].
  [[nodiscard]] double progress(Pid pid) const;

  /// Release a named barrier for a process (data arrived on the pipe /
  /// upstream stage finished). Level-triggered: releasing before the
  /// process reaches the matching BarrierPhase makes that phase fall
  /// through. Unknown pids and repeat releases are no-ops. A stopped
  /// process absorbs the release but only advances on SIGCONT.
  void release_barrier(Pid pid, const std::string& name);

  // --- invariant auditing ---------------------------------------------------
  [[nodiscard]] std::string audit_label() const override { return name_; }
  /// Audited invariants: signal-state legality (no zombies in the process
  /// table, VMM stopped flag mirrors ProcState::Stopped) and phase
  /// bookkeeping bounds. A process's regions live only in the VMM.
  void audit(std::vector<std::string>& violations) const override;
  /// Per-node process table.
  void dump(std::ostream& os) const override;
  /// Every mutator marks the audit-dirty flag, so the periodic sweep may
  /// skip this kernel across clean stretches.
  [[nodiscard]] bool audit_supports_dirty() const override { return true; }

  /// Testing-only fault injection: desynchronize the VMM stopped flag
  /// from the process state so the signal-state audit fires.
  void testing_corrupt_stop_state(Pid pid) {
    vmm_.set_stopped(pid, true);
    mark_audit_dirty();
  }

 private:
  void start_phase(Process& p);
  void advance(Process& p);
  /// One parallel leg (cpu / disk / vmm) of the current phase finished.
  void leg_done(Pid pid);
  /// Run `fn` now, or park it until SIGCONT if the process is stopped.
  void run_or_defer(Pid pid, std::function<void()> fn);

  void deliver_tstp(Process& p);
  void deliver_cont(Process& p);
  void terminate(Pid pid, ExitReason reason);

  void pause_legs(Process& p);
  void resume_legs(Process& p);

  RegionId region_of(Process& p, const std::string& name, bool create);
  void handle_oom();

  Simulation& sim_;
  OsConfig cfg_;
  std::string name_;
  FluidResource cpu_;
  Disk disk_;
  Vmm vmm_;
  std::map<Pid, std::unique_ptr<Process>> procs_;
  IdGenerator<Pid> pids_;

  // --- observability (src/trace) -----------------------------------------
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;  ///< trace track (node process, "kernel" thread)
  trace::Counter* ctr_spawned_ = nullptr;
  trace::Counter* ctr_signals_ = nullptr;
  trace::Counter* ctr_oom_kills_ = nullptr;
};

}  // namespace osap
