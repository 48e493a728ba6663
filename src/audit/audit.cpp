#include "audit/audit.hpp"

#include <sstream>

#include "common/error.hpp"

namespace osap {

namespace {

/// "[label] message", appended piece by piece: GCC 12 at -O3
/// reports a false -Wrestrict inside `"[" + label + "] " + message`.
std::string labelled(const std::string& label, const std::string& message) {
  std::string out;
  out.reserve(label.size() + message.size() + 3);
  out.append("[").append(label).append("] ").append(message);
  return out;
}

}  // namespace

void AuditRegistry::add(InvariantAuditor* auditor) {
  if (auditor == nullptr) return;
  OSAP_CHECK_MSG(auditor->audit_slot_ == InvariantAuditor::kUnregistered,
                 "auditor '" << auditor->audit_label() << "' registered twice");
  auditor->audit_slot_ = auditors_.size();
  auditors_.push_back(auditor);
  costs_.push_back(AuditorCost{auditor->audit_label(), 0, 0});
  ++registered_;
}

void AuditRegistry::remove(InvariantAuditor* auditor) {
  if (auditor == nullptr) return;
  const std::size_t slot = auditor->audit_slot_;
  if (slot >= auditors_.size() || auditors_[slot] != auditor) return;
  auditors_[slot] = nullptr;
  retired_costs_.push_back(std::move(costs_[slot]));
  auditor->audit_slot_ = InvariantAuditor::kUnregistered;
  --registered_;
}

void AuditRegistry::run(std::vector<std::string>& violations) const {
  for (const InvariantAuditor* auditor : auditors_) {
    if (auditor == nullptr) continue;
    std::vector<std::string> found;
    auditor->audit(found);
    for (std::string& message : found) {
      violations.push_back(labelled(auditor->audit_label(), message));
    }
  }
}

AuditRegistry::SweepStats AuditRegistry::sweep(std::vector<std::string>& violations) {
  ++sweeps_;
  SweepStats stats;
  for (std::size_t i = 0; i < auditors_.size(); ++i) {
    InvariantAuditor* auditor = auditors_[i];
    if (auditor == nullptr) continue;
    if (auditor->audit_supports_dirty() && !auditor->audit_dirty()) {
      ++stats.skipped;
      ++costs_[i].skipped;
      continue;
    }
    ++stats.swept;
    ++costs_[i].swept;
    std::vector<std::string> found;
    auditor->audit(found);
    if (found.empty()) {
      // Clean pass: safe to skip until the next mutation re-dirties.
      if (auditor->audit_supports_dirty()) auditor->clear_audit_dirty();
      continue;
    }
    for (std::string& message : found) {
      violations.push_back(labelled(auditor->audit_label(), message));
    }
  }
  return stats;
}

std::vector<AuditRegistry::AuditorCost> AuditRegistry::costs() const {
  std::vector<AuditorCost> all = retired_costs_;
  for (std::size_t i = 0; i < auditors_.size(); ++i) {
    if (auditors_[i] != nullptr) all.push_back(costs_[i]);
  }
  return all;
}

std::string AuditRegistry::dump_all() const {
  std::ostringstream os;
  for (const InvariantAuditor* auditor : auditors_) {
    if (auditor == nullptr) continue;
    os << "--- " << auditor->audit_label() << " ---\n";
    auditor->dump(os);
  }
  return os.str();
}

}  // namespace osap
