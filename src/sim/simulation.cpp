#include "sim/simulation.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"

namespace osap {

Simulation::Simulation() {
  Logger::instance().set_clock([this] { return now_; });
  trace_.tracer().set_clock([this] { return now_; });
}

Simulation::~Simulation() { Logger::instance().clear_clock(); }

EventId Simulation::at(SimTime t, Callback&& fn) {
  OSAP_CHECK_MSG(t >= now_, "cannot schedule in the past: " << t << " < " << now_);
  return queue_.push(t, std::move(fn));
}

EventId Simulation::after(Duration d, Callback&& fn) {
  if (d < 0) d = 0;
  for (const auto& [delay, lane] : fixed_delays_) {
    if (delay == d) return queue_.push(lane, now_ + d, std::move(fn));
  }
  return queue_.push(now_ + d, std::move(fn));
}

void Simulation::declare_fixed_delay(Duration d) {
  OSAP_CHECK_MSG(d >= 0 && d < kTimeNever, "fixed delay must be finite and >= 0, got " << d);
  for (const auto& fixed : fixed_delays_) {
    if (fixed.first == d) return;
  }
  fixed_delays_.emplace_back(d, queue_.add_lane());
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  OSAP_CHECK(fired.time >= now_);
  if (audit_cfg_.enabled) {
    if (fired.time == now_ && processed_ > 0) {
      if (++stalled_events_ >= audit_cfg_.max_stalled_events) {
        watchdog_abort(fired.time, fired.seq);
      }
    } else {
      stalled_events_ = 0;
    }
  }
  now_ = fired.time;
  ++processed_;
  trace_digest_.mix(fired.time);
  trace_digest_.mix(fired.seq);
  if (audit_cfg_.enabled && audit_cfg_.min_advance_window > 0 &&
      processed_ % audit_cfg_.min_advance_window == 0) {
    const Duration advanced = now_ - window_anchor_;
    if (advanced < audit_cfg_.min_advance_floor) min_advance_abort(advanced);
    window_anchor_ = now_;
  }
  trace_.profiler().add(trace::HotPath::EventDispatch, fired.work);
  fired.fn();
  if (audit_cfg_.enabled && audits_.size() > 0 && processed_ % audit_cfg_.stride == 0) {
    sweep_audits();
  }
  return true;
}

void Simulation::audit_now() const {
  std::vector<std::string> violations;
  audits_.run(violations);
  if (!violations.empty()) audit_abort(violations);
}

void Simulation::sweep_audits() {
  std::vector<std::string> violations;
  const AuditRegistry::SweepStats stats = audits_.sweep(violations);
  trace_.profiler().add(trace::HotPath::AuditSweep, stats.swept);
  if (!violations.empty()) audit_abort(violations);
}

void Simulation::audit_abort(const std::vector<std::string>& violations) const {
  std::ostringstream os;
  os << "invariant audit failed at t=" << now_ << " after " << processed_
     << " events (" << queue_.pending() << " pending):";
  for (const std::string& v : violations) os << "\n  " << v;
  os << "\n" << audits_.dump_all();
  OSAP_LOG(Error, "audit") << os.str();
  throw SimError(os.str());
}

void Simulation::write_observability_json(std::ostream& os) const {
  os << "{\n\"events_processed\":" << processed_ << ",\n";
  {
    std::ostringstream digest;
    digest << "0x" << std::hex << trace_digest_.value();
    os << "\"trace_digest\":\"" << digest.str() << "\",\n";
  }
  trace_.counters().write_json(os);
  os << ",\n";
  trace_.profiler().write_json(os);
  os << ",\n\"audit_sweeps\":{\"sweeps\":" << audits_.sweeps() << ",\"auditors\":[";
  std::vector<AuditRegistry::AuditorCost> costs = audits_.costs();
  std::sort(costs.begin(), costs.end(),
            [](const auto& a, const auto& b) { return a.label < b.label; });
  bool first = true;
  for (const auto& c : costs) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"label\":\"" << c.label << "\",\"swept\":" << c.swept
       << ",\"skipped\":" << c.skipped << "}";
  }
  os << "\n]}\n}\n";
}

void Simulation::min_advance_abort(Duration advanced) const {
  std::ostringstream os;
  os << "watchdog: simulated time crept only " << advanced << " s over the last "
     << audit_cfg_.min_advance_window << " events (floor "
     << audit_cfg_.min_advance_floor << " s, now t=" << now_ << ", " << processed_
     << " processed, " << queue_.pending()
     << " pending) — likely a creeping-time event livelock\n"
     << audits_.dump_all();
  OSAP_LOG(Error, "audit") << os.str();
  throw SimError(os.str());
}

void Simulation::watchdog_abort(SimTime event_time, std::uint64_t event_seq) const {
  std::ostringstream os;
  os << "watchdog: simulated time stalled at t=" << event_time << " for " << stalled_events_
     << " consecutive events (current event seq " << event_seq << ", " << processed_
     << " processed, " << queue_.pending() << " pending) — likely a zero-delay event livelock\n"
     << audits_.dump_all();
  OSAP_LOG(Error, "audit") << os.str();
  throw SimError(os.str());
}

SimTime Simulation::run() {
  while (step()) {
  }
  return now_;
}

void Simulation::run_until(SimTime t) {
  OSAP_CHECK(t >= now_);
  while (!queue_.empty() && queue_.next_time() <= t) step();
  now_ = t;
}

}  // namespace osap
