// The discrete-event simulation driver.
//
// Owns the virtual clock and the event queue. All model components hold a
// reference to one Simulation and schedule callbacks through it. Execution
// is strictly single-threaded and deterministic: same seed, same schedule,
// same results.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/det.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "trace/context.hpp"

namespace osap {

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventId at(SimTime t, std::function<void()> fn);

  /// Schedule after a relative delay (clamped to >= 0).
  EventId after(Duration d, std::function<void()> fn);

  /// Declare `d` a delay the model schedules at over and over (a
  /// heartbeat interval, a link latency). after(d) then queues on a FIFO
  /// lane of its own instead of the heap: now() never decreases, so
  /// neither does now() + d, and the lane pops in O(1). Events fire in
  /// the same order either way. Declaring a delay twice is a no-op.
  void declare_fixed_delay(Duration d);

  /// Cancel a pending event (no-op if already fired).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Fire the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains; returns the time of the last event.
  SimTime run();

  /// Run events with time <= t, then set the clock to exactly t.
  void run_until(SimTime t);

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  /// FNV-1a digest of the executed event stream: every fired event's
  /// (time, insertion sequence) pair, in firing order. Two runs of the
  /// same scenario must produce identical digests — the runtime witness
  /// behind the DET-* lint rules (docs/LINT.md); the tier-1 double-run
  /// test enforces it.
  [[nodiscard]] std::uint64_t trace_digest() const noexcept { return trace_digest_.value(); }
  /// Debug view of pending (time, id) pairs.
  [[nodiscard]] std::vector<std::pair<SimTime, EventId>> pending_events() const {
    return queue_.pending_events();
  }

  // --- invariant audits & watchdog ----------------------------------------
  /// Model layers register their InvariantAuditors here; step() sweeps
  /// them every audit_config().stride events and aborts on violations.
  [[nodiscard]] AuditRegistry& audits() noexcept { return audits_; }
  void set_audit_config(const AuditConfig& cfg) noexcept { audit_cfg_ = cfg; }
  [[nodiscard]] const AuditConfig& audit_config() const noexcept { return audit_cfg_; }
  /// Sweep all auditors now; throws SimError with a diagnostic dump if any
  /// invariant is violated (regardless of the enabled flag). Always a full
  /// sweep — dirty-flag skipping applies only to the periodic sweep.
  void audit_now() const;

  // --- observability ------------------------------------------------------
  /// Tracer + counters + hot-path profiler (src/trace). Purely passive:
  /// recording never schedules events, so the event-trace digest is
  /// identical whether or not tracing is enabled.
  [[nodiscard]] trace::TraceContext& trace() noexcept { return trace_; }
  [[nodiscard]] const trace::TraceContext& trace() const noexcept { return trace_; }
  /// Machine-readable end-of-run dump: counters, gauges, hot-path profile,
  /// per-auditor sweep costs, events processed, event-trace digest.
  void write_observability_json(std::ostream& os) const;

 private:
  /// Periodic stride sweep: dirty-aware, profiled, aborts like audit_now().
  void sweep_audits();
  [[noreturn]] void audit_abort(const std::vector<std::string>& violations) const;
  [[noreturn]] void watchdog_abort(SimTime event_time, std::uint64_t event_seq) const;
  [[noreturn]] void min_advance_abort(Duration advanced) const;

  EventQueue queue_;
  /// Declared fixed delays and the lanes after() queues them on.
  std::vector<std::pair<Duration, EventQueue::Lane>> fixed_delays_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  AuditRegistry audits_;
  AuditConfig audit_cfg_;
  /// Consecutive events fired without the clock advancing (watchdog).
  std::uint64_t stalled_events_ = 0;
  /// Clock value at the start of the current min-advance window.
  SimTime window_anchor_ = 0;
  det::Fnv1a trace_digest_;
  trace::TraceContext trace_;
};

}  // namespace osap
