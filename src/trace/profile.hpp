// Hot-path profiler: attributes simulator cost per layer without reading
// a wall clock (DET-2). Cost is measured in deterministic *work units* —
// calls and per-call work (queue depth settled, bytes reclaimed, reports
// assembled) — which is exactly what decides real CPU time in a
// single-threaded discrete-event simulator, and unlike nanosecond timers
// it is bit-reproducible across machines. This is the instrument the
// ROADMAP's audit-sweep-cost question needed.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

namespace osap::trace {

/// The dispatch paths worth attributing. Keep in sync with
/// HotPathProfiler::name().
enum class HotPath : std::uint8_t {
  EventDispatch,      ///< Simulation::step — work = heap levels the pop sifted
                      ///< down + tombstones it pruned (a lane pop sifts none).
  FluidUpdate,        ///< FluidResource::update — work = active consumers.
  NetDelivery,        ///< Network::send control messages.
  VmmCommit,          ///< Vmm::commit — work = vm_chunk extents committed.
  VmmReclaim,         ///< Vmm reclaim slow path — work = bytes wanted.
  HeartbeatAssembly,  ///< TaskTracker::send_status — work = reports.
  HeartbeatHandle,    ///< JobTracker::on_heartbeat — work = actions sent.
  SchedulerAssign,    ///< Scheduler assignment loop — work = launches.
  SpeculationScan,    ///< Straggler detector sweep — work = candidates.
  AuditSweep,         ///< Periodic invariant sweep — work = auditors run.
  kCount,
};

class HotPathProfiler {
 public:
  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t work = 0;
  };

  void add(HotPath p, std::uint64_t work = 1) noexcept {
    Stats& s = stats_[static_cast<std::size_t>(p)];
    ++s.calls;
    s.work += work;
  }

  [[nodiscard]] Stats stats(HotPath p) const noexcept {
    return stats_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] static const char* name(HotPath p) noexcept;

  /// {"EventDispatch":{"calls":N,"work":N}, ...} in enum order.
  void write_json(std::ostream& os) const;

 private:
  std::array<Stats, static_cast<std::size_t>(HotPath::kCount)> stats_{};
};

}  // namespace osap::trace
