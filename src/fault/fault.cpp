#include "fault/fault.hpp"

#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace osap::fault {

namespace {

/// The arguments of one plan line after its verb. Each is read exactly
/// (src/common/parse.hpp), and the count must match the verb's form: a
/// trailing token is an error, not a comment.
class LineArgs {
 public:
  LineArgs(std::istream& line, int lineno) {
    for (std::string token; line >> token;) tokens_.push_back(std::move(token));
    where_ = "fault plan line ";
    where_ += std::to_string(lineno);
  }

  /// Fail unless the line carries exactly `n` arguments, naming `form`.
  void expect(std::size_t n, const char* form) const {
    OSAP_CHECK_MSG(tokens_.size() == n, where_ << ": " << form);
  }
  /// Check a per-verb constraint, naming `form` on failure.
  void require(bool ok, const char* form) const { OSAP_CHECK_MSG(ok, where_ << ": " << form); }

  [[nodiscard]] double real(std::size_t i, const char* name) const {
    return parse_real(tokens_[i], label(name));
  }
  [[nodiscard]] NodeId node(std::size_t i) const {
    return NodeId{parse_integer<std::uint64_t>(tokens_[i], label("node"), 0,
                                               "a non-negative integer")};
  }

 private:
  [[nodiscard]] std::string label(const char* name) const {
    std::string out = where_;
    out.append(": ").append(name);
    return out;
  }

  std::vector<std::string> tokens_;
  std::string where_;
};

}  // namespace

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  std::string raw;
  int lineno = 0;
  // Node deaths already scheduled (crash or revoke): a second death of
  // the same node at the same instant would double-tear-down.
  std::set<std::pair<std::uint64_t, SimTime>> deaths;
  const auto claim_death = [&deaths, &lineno](NodeId node, SimTime at) {
    OSAP_CHECK_MSG(deaths.emplace(node.value(), at).second,
                   "fault plan line " << lineno << ": node " << node.value()
                                      << " already dies at t=" << at
                                      << " (duplicate crash/revoke)");
  };
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments and whitespace-only lines.
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string verb;
    if (!(line >> verb)) continue;
    const LineArgs args(line, lineno);
    if (verb == "crash") {
      args.expect(2, "crash <t> <node>");
      const NodeCrash f{args.real(0, "t"), args.node(1)};
      claim_death(f.node, f.at);
      plan.crashes.push_back(f);
    } else if (verb == "hang") {
      constexpr const char* kForm = "hang <t> <node> <duration>";
      args.expect(3, kForm);
      const TrackerHang f{args.real(0, "t"), args.node(1), args.real(2, "duration")};
      args.require(f.duration > 0, kForm);
      plan.hangs.push_back(f);
    } else if (verb == "drop-heartbeats") {
      constexpr const char* kForm = "drop-heartbeats <from> <until> <node>";
      args.expect(3, kForm);
      const HeartbeatDrop f{args.real(0, "from"), args.real(1, "until"), args.node(2)};
      args.require(f.until > f.from, kForm);
      plan.heartbeat_drops.push_back(f);
    } else if (verb == "delay-messages") {
      constexpr const char* kForm = "delay-messages <from> <until> <node> <extra>";
      args.expect(4, kForm);
      const MessageDelay f{args.real(0, "from"), args.real(1, "until"), args.node(2),
                           args.real(3, "extra")};
      args.require(f.until > f.from && f.extra > 0, kForm);
      plan.delays.push_back(f);
    } else if (verb == "lose-checkpoints") {
      args.expect(2, "lose-checkpoints <t> <node>");
      plan.checkpoint_losses.push_back({args.real(0, "t"), args.node(1)});
    } else if (verb == "revoke") {
      constexpr const char* kForm = "revoke <t> <node> <warning_s>";
      args.expect(3, kForm);
      const NodeRevocation f{args.real(0, "t"), args.node(1), args.real(2, "warning_s")};
      args.require(f.warning > 0, kForm);
      claim_death(f.node, f.at);
      plan.revocations.push_back(f);
    } else {
      OSAP_CHECK_MSG(false, "fault plan line " << lineno << ": unknown verb '" << verb << "'");
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_plan(in);
}

}  // namespace osap::fault
