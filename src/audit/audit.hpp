// Runtime invariant auditing: catch a broken simulation the moment it
// breaks, not when a downstream metric looks funny.
//
// Model layers (VMM, kernel, trackers, preemption protocol) implement
// InvariantAuditor and register with the Simulation's AuditRegistry. The
// event loop sweeps the registry every `stride` events; any violated
// invariant aborts the run with a SimError carrying the violation list
// plus every auditor's state dump. The same registry powers the watchdog:
// when simulated time stops advancing for `max_stalled_events`
// consecutive events (a zero-delay event livelock), the loop aborts with
// the same diagnostic dump instead of hanging forever.
//
// Audits default to ON — the sweeps are cheap relative to event dispatch
// — and can be disabled per Simulation (e.g. huge batch experiments) via
// AuditConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace osap {

struct AuditConfig {
  bool enabled = true;
  /// Sweep all registered auditors every `stride` processed events.
  std::uint64_t stride = 64;
  /// Watchdog: abort when this many consecutive events fire without
  /// simulated time advancing. Legitimate same-time bursts (heartbeat
  /// storms, spawn cascades) are a few hundred events; a livelock crosses
  /// any bound immediately, so this only needs to be comfortably large.
  std::uint64_t max_stalled_events = 100000;
  /// Min-advance watchdog: every `min_advance_window` processed events the
  /// clock must have advanced by at least `min_advance_floor` seconds.
  /// Catches livelocks that creep time forward (ULP increments, 1 ns fluid
  /// floors) and therefore reset the same-instant counter forever. The
  /// window is deliberately larger than `max_stalled_events` so a pure
  /// zero-delay livelock still gets the precise same-instant diagnosis.
  /// Healthy workloads advance milliseconds-to-seconds per event; a
  /// window's worth of events advancing less than a microsecond in total
  /// is creep, not progress. 0 disables.
  std::uint64_t min_advance_window = 131072;
  Duration min_advance_floor = 1e-6;
};

/// One model layer's self-check. Implementations must deregister before
/// destruction (typically: register in the constructor, remove in the
/// destructor — the registry stores raw pointers).
class InvariantAuditor {
 public:
  InvariantAuditor() = default;
  /// An auditor carries its registry slot, so it is never copied.
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;
  virtual ~InvariantAuditor() = default;

  /// Instance label used in violation messages, e.g. "vmm(node0)".
  [[nodiscard]] virtual std::string audit_label() const = 0;

  /// Append one message per violated invariant. Must not mutate state.
  virtual void audit(std::vector<std::string>& violations) const = 0;

  /// Human-readable state dump for the diagnostic abort message.
  virtual void dump(std::ostream& os) const = 0;

  // --- dirty-flagging -------------------------------------------------
  // Auditors that mark themselves dirty on *every* state mutation may
  // opt in (return true here); the periodic sweep then skips them while
  // clean, which the hot-path profile showed dominates sweep cost on
  // compute-heavy stretches. Opting in is a contract: a missed
  // mark_audit_dirty() hides corruption from the periodic sweep (on-demand
  // audit_now() still always runs everything). Auditors start dirty so
  // construction-time state is checked at least once.

  /// Opt-in switch; default is to be swept unconditionally.
  [[nodiscard]] virtual bool audit_supports_dirty() const { return false; }

  [[nodiscard]] bool audit_dirty() const noexcept { return audit_dirty_; }
  /// Called by the registry after a clean pass over this auditor.
  void clear_audit_dirty() noexcept { audit_dirty_ = false; }

 protected:
  /// Mutating methods of opted-in auditors call this.
  void mark_audit_dirty() noexcept { audit_dirty_ = true; }

 private:
  friend class AuditRegistry;
  static constexpr std::size_t kUnregistered = ~std::size_t{0};

  bool audit_dirty_ = true;
  /// This auditor's slot in the registry it joined, so removal is O(1).
  std::size_t audit_slot_ = kUnregistered;
};

/// Auditors in registration order. Both add() and remove() are O(1): an
/// auditor carries its slot, and a removed one leaves its slot empty for
/// the walks to skip.
class AuditRegistry {
 public:
  /// Append `auditor`; registering one twice is a SimError.
  void add(InvariantAuditor* auditor);
  /// Empty the auditor's slot and retire its cost row. A no-op for an
  /// auditor not registered here.
  void remove(InvariantAuditor* auditor);

  /// Sweep every auditor, labelling each violation with its source.
  void run(std::vector<std::string>& violations) const;

  struct SweepStats {
    std::size_t swept = 0;
    std::size_t skipped = 0;
  };

  /// Dirty-aware periodic sweep: auditors that opt into dirty-flagging and
  /// are currently clean are skipped; everyone else is audited, and an
  /// opted-in auditor's flag is cleared only after a violation-free pass.
  /// Per-auditor swept/skipped tallies accumulate into costs().
  SweepStats sweep(std::vector<std::string>& violations);

  /// Cumulative per-auditor sweep cost, in registration order. Survives
  /// for the lifetime of the registry (labels are cached at add() so the
  /// row outlives auditor removal).
  struct AuditorCost {
    std::string label;
    std::uint64_t swept = 0;
    std::uint64_t skipped = 0;
  };
  [[nodiscard]] std::vector<AuditorCost> costs() const;
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_; }

  /// Every auditor's dump, concatenated.
  [[nodiscard]] std::string dump_all() const;

  /// Registered auditors.
  [[nodiscard]] std::size_t size() const noexcept { return registered_; }

 private:
  /// Slots in registration order; nullptr where an auditor was removed.
  std::vector<InvariantAuditor*> auditors_;
  /// costs_[i] belongs to auditors_[i] while registered; on remove() the
  /// row is retired to retired_costs_ so measurements survive teardown.
  std::vector<AuditorCost> costs_;
  std::vector<AuditorCost> retired_costs_;
  std::size_t registered_ = 0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace osap
