// Seeded statistical node-lifetime models (docs/REVOKE.md).
//
// Transient capacity — spot VMs, opportunistic grid slots — is cheap
// because the provider may revoke whole nodes. This module turns a
// (node count, transient mix, lifetime model, seed) tuple into a
// FaultPlan-compatible revocation schedule: each transient node draws one
// lifetime from the chosen distribution through the sim's own Rng, so the
// same descriptor replays bit-identically (the repo's determinism law).
// The plan also carries per-class hourly rates, from which the cost side
// of the cost/completion frontier is computed.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fault/fault.hpp"

namespace osap::revoke {

enum class LifetimeModel {
  /// No revocations; every node is effectively on-demand (the frontier's
  /// baseline column, still costed at the on-demand rate).
  None,
  /// Memoryless exponential lifetimes — the classic spot-revocation
  /// assumption (constant hazard).
  Exponential,
  /// Weibull with shape 2 (increasing hazard): young nodes are safe,
  /// aging ones increasingly likely to be reclaimed. Shape 2 keeps the
  /// mean/scale relation in closed form (no libm gamma), so lifetimes are
  /// bit-identical across standard libraries.
  Weibull,
  /// Replay of a normalized empirical lifetime table (fractions of the
  /// mean), cycled by transient-node ordinal — a deterministic stand-in
  /// for trace-driven revocation studies.
  TraceReplay,
  /// Temporally-constrained revocation à la Kadupitiya et al.: lifetimes
  /// are drawn exponentially but deaths only land inside recurring
  /// revocation windows (the provider reclaims in bursts); a death that
  /// would fall between windows is deferred to the next window start.
  Windows,
};

[[nodiscard]] const char* to_string(LifetimeModel m) noexcept;
/// Parse "none" / "exp" / "weibull" / "trace" / "windows"; throws
/// SimError on anything else.
[[nodiscard]] LifetimeModel parse_lifetime_model(const std::string& name);

struct LifetimeOptions {
  LifetimeModel model = LifetimeModel::None;
  /// Fraction of the cluster's nodes that are transient, in [0,1].
  /// Transient nodes are taken from the top of the node-index range, so
  /// node 0 stays on-demand.
  double node_mix = 0;
  /// Mean sampled lifetime, seconds.
  double mean_lifetime_s = 400;
  /// Revocation notice delivered before each death (the spot warning).
  Duration warning_s = 120;
  /// Lifetimes sampled at or past this horizon survive the run: no
  /// revocation is scheduled for them (they still cost transient-rate).
  double horizon_s = 3600;
  /// Per-class hourly rates (arbitrary currency); the frontier's cost
  /// axis. Transient capacity is priced below on-demand.
  double on_demand_rate = 1.0;
  double transient_rate = 0.3;
  /// Windows model: revocation bursts recur every `window_period_s`,
  /// each open for `window_open_s` from its start.
  double window_period_s = 600;
  double window_open_s = 120;
  std::uint64_t seed = 1;
};

/// A materialized revocation schedule for one cluster.
struct RevocationPlan {
  static constexpr double kSurvives = std::numeric_limits<double>::infinity();

  /// Per node index: true when the node is transient.
  std::vector<bool> transient;
  /// Per node index: scheduled death time, kSurvives when none.
  std::vector<double> death_at;
  /// The revocation entries (ascending node index), ready to merge into a
  /// FaultPlan via merge_into().
  std::vector<fault::NodeRevocation> revocations;
  double on_demand_rate = 1.0;
  double transient_rate = 0.3;

  /// Append the schedule to `plan` (the injector executes both the
  /// scripted faults and the sampled revocations through one filter).
  void merge_into(fault::FaultPlan& plan) const;

  /// Cluster cost of running until `sim_end` seconds: each node accrues
  /// its class rate until its death or the end of the run.
  [[nodiscard]] double cost(double sim_end) const;

  [[nodiscard]] bool is_transient(NodeId node) const {
    return node.value() < transient.size() && transient[node.value()];
  }
};

/// Sample the schedule for `num_nodes` worker nodes. Deterministic: one
/// Rng seeded from `opts.seed`, nodes visited in ascending index.
[[nodiscard]] RevocationPlan plan_revocations(std::size_t num_nodes, const LifetimeOptions& opts);

}  // namespace osap::revoke
