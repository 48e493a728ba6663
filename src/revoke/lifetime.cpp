#include "revoke/lifetime.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace osap::revoke {

namespace {

/// Normalized empirical lifetime table (fractions of the mean): a spread
/// of short-lived, typical and long-lived nodes with mean ~1, cycled by
/// transient-node ordinal under TraceReplay.
constexpr double kTraceTable[] = {0.18, 1.35, 0.52, 2.40, 0.75, 0.95,
                                  3.10, 0.33, 1.10, 0.60, 1.85, 0.27};
constexpr std::size_t kTraceTableSize = sizeof(kTraceTable) / sizeof(kTraceTable[0]);

/// sqrt(pi), spelled out so the Weibull scale needs no libm gamma.
constexpr double kSqrtPi = 1.7724538509055160273;

}  // namespace

const char* to_string(LifetimeModel m) noexcept {
  switch (m) {
    case LifetimeModel::None: return "none";
    case LifetimeModel::Exponential: return "exp";
    case LifetimeModel::Weibull: return "weibull";
    case LifetimeModel::TraceReplay: return "trace";
    case LifetimeModel::Windows: return "windows";
  }
  return "?";
}

LifetimeModel parse_lifetime_model(const std::string& name) {
  if (name == "none") return LifetimeModel::None;
  if (name == "exp") return LifetimeModel::Exponential;
  if (name == "weibull") return LifetimeModel::Weibull;
  if (name == "trace") return LifetimeModel::TraceReplay;
  if (name == "windows") return LifetimeModel::Windows;
  OSAP_CHECK_MSG(false, "unknown lifetime model '" << name
                                                   << "' (none|exp|weibull|trace|windows)");
  return LifetimeModel::None;
}

void RevocationPlan::merge_into(fault::FaultPlan& plan) const {
  plan.revocations.insert(plan.revocations.end(), revocations.begin(), revocations.end());
}

double RevocationPlan::cost(double sim_end) const {
  double total = 0;
  for (std::size_t i = 0; i < transient.size(); ++i) {
    const double rate = transient[i] ? transient_rate : on_demand_rate;
    const double alive = std::min(death_at[i], sim_end);
    total += rate * alive / 3600.0;
  }
  return total;
}

RevocationPlan plan_revocations(std::size_t num_nodes, const LifetimeOptions& opts) {
  OSAP_CHECK_MSG(opts.node_mix >= 0 && opts.node_mix <= 1,
                 "node_mix " << opts.node_mix << " outside [0,1]");
  OSAP_CHECK_MSG(opts.mean_lifetime_s > 0, "mean lifetime must be positive");
  OSAP_CHECK_MSG(opts.warning_s > 0, "revocation warning must be positive");

  RevocationPlan plan;
  plan.on_demand_rate = opts.on_demand_rate;
  plan.transient_rate = opts.transient_rate;
  plan.transient.assign(num_nodes, false);
  plan.death_at.assign(num_nodes, RevocationPlan::kSurvives);
  if (opts.model == LifetimeModel::None || opts.node_mix <= 0 || num_nodes == 0) return plan;

  const auto transient_count = static_cast<std::size_t>(
      opts.node_mix * static_cast<double>(num_nodes) + 0.5);
  // Transient nodes occupy the top of the index range so node 0 stays
  // on-demand.
  // Lifetimes flow through a dedicated stream derived from the seed, so
  // enabling revocations never perturbs SWIM trace generation.
  Rng rng(opts.seed ^ 0x7265766F6B65ULL);  // "revoke"
  std::size_t ordinal = 0;
  for (std::size_t i = num_nodes - transient_count; i < num_nodes; ++i, ++ordinal) {
    plan.transient[i] = true;
    double life = 0;
    switch (opts.model) {
      case LifetimeModel::None: break;
      case LifetimeModel::Exponential:
        life = rng.exponential(opts.mean_lifetime_s);
        break;
      case LifetimeModel::Weibull: {
        // Shape 2: mean = scale * sqrt(pi)/2, so scale = 2*mean/sqrt(pi);
        // inverse CDF is scale * sqrt(-ln(1-u)).
        const double scale = 2.0 * opts.mean_lifetime_s / kSqrtPi;
        life = scale * std::sqrt(-std::log1p(-rng.uniform()));
        break;
      }
      case LifetimeModel::TraceReplay:
        life = kTraceTable[ordinal % kTraceTableSize] * opts.mean_lifetime_s;
        break;
      case LifetimeModel::Windows: {
        life = rng.exponential(opts.mean_lifetime_s);
        const double phase = std::fmod(life, opts.window_period_s);
        // The provider reclaims in bursts: a death falling between
        // windows is deferred to the next window start.
        if (phase > opts.window_open_s) life += opts.window_period_s - phase;
        break;
      }
    }
    if (life <= 0) life = 1.0;
    if (life >= opts.horizon_s) continue;  // survives the run
    plan.death_at[i] = life;
    fault::NodeRevocation r;
    r.at = life;
    r.node = NodeId{i};
    r.warning = opts.warning_s;
    plan.revocations.push_back(r);
  }
  return plan;
}

}  // namespace osap::revoke
