// Simulated UNIX process.
//
// Hadoop map/reduce tasks "are regular Unix processes running in child
// JVMs spawned by the TaskTracker" (§III-B), so the preemption primitive
// is implemented purely with the process abstraction here: POSIX-style
// signals change the scheduling state, and the VMM treats stopped
// processes' memory as prime eviction victims.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "os/disk.hpp"
#include "os/program.hpp"
#include "sim/fluid_resource.hpp"

namespace osap {

/// The subset of POSIX signals the primitive uses (§III-B). SIGTSTP and
/// SIGCONT are chosen over SIGSTOP because they can be caught, letting
/// tasks manage external state before stopping.
enum class Signal { Tstp, Cont, Kill, Term };

const char* to_string(Signal s) noexcept;

enum class ProcState { Running, Stopping, Stopped, Zombie };

const char* to_string(ProcState s) noexcept;

/// Why a process left the Running/Stopped states.
enum class ExitReason { Finished, Killed, OomKilled };

struct ExitInfo {
  ExitReason reason = ExitReason::Finished;
  [[nodiscard]] bool killed() const noexcept { return reason != ExitReason::Finished; }
};

/// Callbacks a spawner can register to observe a child's lifecycle
/// (the TaskTracker watches its child JVMs this way).
struct ProcessHooks {
  std::function<void(ExitInfo)> on_exit;
  /// Fired when the process has actually entered the Stopped state (the
  /// SIGTSTP handler has run its course).
  std::function<void()> on_stopped;
  std::function<void()> on_continued;
};

class Process {
 public:
  Process(Pid pid, Program program, ProcessHooks hooks)
      : pid_(pid), program_(std::move(program)), hooks_(std::move(hooks)) {}

  [[nodiscard]] Pid pid() const noexcept { return pid_; }
  [[nodiscard]] ProcState state() const noexcept { return state_; }
  [[nodiscard]] const std::string& name() const noexcept { return program_.name; }

 private:
  friend class Kernel;

  // Per-phase runtime bookkeeping, owned by the kernel's interpreter.
  struct PhaseRun {
    int outstanding = 0;  // parallel legs (cpu + disk) still running
    FluidResource::ConsumerId cpu = 0;
    Disk::StreamId disk = 0;
    double cpu_demand = 0;  // for progress computation
    EventId sleep_timer = 0;
    Duration sleep_left = 0;
    SimTime sleep_wake_at = 0;
    /// Non-empty while parked in a BarrierPhase of this name.
    std::string waiting_barrier;
  };

  Pid pid_;
  Program program_;
  ProcessHooks hooks_;
  ProcState state_ = ProcState::Running;
  std::size_t phase_idx_ = 0;
  PhaseRun run_;
  /// Barriers already released by the kernel; a matching BarrierPhase
  /// falls through immediately (releases are level-triggered, not edges).
  std::vector<std::string> released_barriers_;
  /// Continuations parked while the process was stopped (e.g. a VMM grant
  /// landed after SIGTSTP); re-dispatched in order on SIGCONT.
  std::vector<std::function<void()>> deferred_;
  /// Generation counter defeating stale SIGTSTP-handler timers when a
  /// SIGCONT (or kill) arrives inside the handler window.
  std::uint64_t signal_gen_ = 0;
  double total_weight_ = 0;
  double weight_done_ = 0;  // weight of completed phases
};

}  // namespace osap
