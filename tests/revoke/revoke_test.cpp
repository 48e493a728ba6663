// Node-revocation subsystem (docs/REVOKE.md): seeded lifetime models
// produce deterministic FaultPlan-compatible schedules, and the
// RevocationManager spends each notice window rescuing work — Natjam
// checkpoint-with-evacuation or CRIU migration. The regression that
// matters most: a warning arriving after its node already died
// (out-of-order plan) is a counted no-op, never a wedge.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "revoke/lifetime.hpp"
#include "revoke/manager.hpp"
#include "sched/fifo.hpp"
#include "trace/names.hpp"
#include "workload/profiles.hpp"

namespace osap::revoke {
namespace {

// --- lifetime models --------------------------------------------------------

TEST(Lifetime, ModelNamesRoundTrip) {
  for (LifetimeModel m : {LifetimeModel::None, LifetimeModel::Exponential,
                          LifetimeModel::Weibull, LifetimeModel::TraceReplay,
                          LifetimeModel::Windows}) {
    EXPECT_EQ(parse_lifetime_model(to_string(m)), m);
  }
  EXPECT_THROW((void)parse_lifetime_model("spot"), SimError);
}

TEST(Lifetime, ReactionNamesRoundTrip) {
  for (Reaction r : {Reaction::None, Reaction::Checkpoint, Reaction::Migrate}) {
    EXPECT_EQ(parse_reaction(to_string(r)), r);
  }
  EXPECT_THROW((void)parse_reaction("pray"), SimError);
}

LifetimeOptions exp_opts(double mix, std::uint64_t seed) {
  LifetimeOptions opts;
  opts.model = LifetimeModel::Exponential;
  opts.node_mix = mix;
  opts.mean_lifetime_s = 300;
  opts.warning_s = 60;
  opts.seed = seed;
  return opts;
}

TEST(Lifetime, PlanIsDeterministicPerSeedAndDivergesAcrossSeeds) {
  const RevocationPlan a = plan_revocations(8, exp_opts(0.5, 7));
  const RevocationPlan b = plan_revocations(8, exp_opts(0.5, 7));
  ASSERT_EQ(a.revocations.size(), b.revocations.size());
  for (std::size_t i = 0; i < a.revocations.size(); ++i) {
    EXPECT_EQ(a.revocations[i].at, b.revocations[i].at);  // bit-exact
    EXPECT_EQ(a.revocations[i].node, b.revocations[i].node);
  }
  const RevocationPlan c = plan_revocations(8, exp_opts(0.5, 8));
  bool any_differs = c.revocations.size() != a.revocations.size();
  for (std::size_t i = 0; !any_differs && i < a.revocations.size(); ++i) {
    any_differs = a.revocations[i].at != c.revocations[i].at;
  }
  EXPECT_TRUE(any_differs) << "seed change did not reroute the schedule";
}

TEST(Lifetime, TransientNodesOccupyTheTopOfTheIndexRange) {
  const RevocationPlan plan = plan_revocations(8, exp_opts(0.5, 7));
  ASSERT_EQ(plan.transient.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(plan.transient[i], i >= 4) << "node " << i;
  EXPECT_FALSE(plan.is_transient(NodeId{0}));
  EXPECT_TRUE(plan.is_transient(NodeId{7}));
  EXPECT_FALSE(plan.is_transient(NodeId{12}));  // out of range
}

TEST(Lifetime, MixZeroAndModelNoneScheduleNothing) {
  EXPECT_TRUE(plan_revocations(4, exp_opts(0, 7)).revocations.empty());
  LifetimeOptions none = exp_opts(0.5, 7);
  none.model = LifetimeModel::None;
  const RevocationPlan plan = plan_revocations(4, none);
  EXPECT_TRUE(plan.revocations.empty());
  for (const double death : plan.death_at) EXPECT_EQ(death, RevocationPlan::kSurvives);
}

TEST(Lifetime, MixValidationRejectsNonsense) {
  EXPECT_THROW((void)plan_revocations(4, exp_opts(1.5, 7)), SimError);
  EXPECT_THROW((void)plan_revocations(4, exp_opts(-0.1, 7)), SimError);
  LifetimeOptions bad_mean = exp_opts(0.5, 7);
  bad_mean.mean_lifetime_s = 0;
  EXPECT_THROW((void)plan_revocations(4, bad_mean), SimError);
  LifetimeOptions bad_warning = exp_opts(0.5, 7);
  bad_warning.warning_s = 0;
  EXPECT_THROW((void)plan_revocations(4, bad_warning), SimError);
}

TEST(Lifetime, TraceReplayCyclesTheEmpiricalTable) {
  LifetimeOptions opts = exp_opts(1.0, 7);
  opts.model = LifetimeModel::TraceReplay;
  opts.mean_lifetime_s = 100;
  opts.horizon_s = 1e9;
  const RevocationPlan plan = plan_revocations(4, opts);
  ASSERT_EQ(plan.revocations.size(), 4u);
  // Table head: 0.18, 1.35, 0.52, 2.40 fractions of the mean.
  EXPECT_DOUBLE_EQ(plan.revocations[0].at, 18.0);
  EXPECT_DOUBLE_EQ(plan.revocations[1].at, 135.0);
  EXPECT_DOUBLE_EQ(plan.revocations[2].at, 52.0);
  EXPECT_DOUBLE_EQ(plan.revocations[3].at, 240.0);
}

TEST(Lifetime, WindowsModelLandsEveryDeathInsideAWindow) {
  LifetimeOptions opts = exp_opts(1.0, 21);
  opts.model = LifetimeModel::Windows;
  opts.mean_lifetime_s = 500;
  opts.window_period_s = 600;
  opts.window_open_s = 120;
  opts.horizon_s = 1e9;
  const RevocationPlan plan = plan_revocations(16, opts);
  ASSERT_FALSE(plan.revocations.empty());
  for (const fault::NodeRevocation& r : plan.revocations) {
    const double phase = std::fmod(r.at, opts.window_period_s);
    EXPECT_LE(phase, opts.window_open_s) << "death at t=" << r.at << " fell between windows";
  }
}

TEST(Lifetime, ModelsProduceDistinctSchedules) {
  LifetimeOptions exp = exp_opts(1.0, 7);
  LifetimeOptions weibull = exp;
  weibull.model = LifetimeModel::Weibull;
  LifetimeOptions trace = exp;
  trace.model = LifetimeModel::TraceReplay;
  const RevocationPlan pe = plan_revocations(6, exp);
  const RevocationPlan pw = plan_revocations(6, weibull);
  const RevocationPlan pt = plan_revocations(6, trace);
  EXPECT_NE(pe.death_at, pw.death_at);
  EXPECT_NE(pe.death_at, pt.death_at);
  EXPECT_NE(pw.death_at, pt.death_at);
}

TEST(Lifetime, CostAccruesClassRateUntilDeathOrRunEnd) {
  RevocationPlan plan;
  plan.on_demand_rate = 1.0;
  plan.transient_rate = 0.3;
  plan.transient = {false, true, true};
  plan.death_at = {RevocationPlan::kSurvives, 1800.0, RevocationPlan::kSurvives};
  // end 3600 s: on-demand node a full hour, dead transient half an hour,
  // surviving transient a full hour at the discount.
  EXPECT_DOUBLE_EQ(plan.cost(3600.0), 1.0 + 0.3 * 0.5 + 0.3);
  // A shorter run caps every node at the run end.
  EXPECT_DOUBLE_EQ(plan.cost(900.0), 0.25 + 0.3 * 0.25 + 0.3 * 0.25);
  // All-on-demand baseline: node count x duration.
  RevocationPlan baseline;
  baseline.transient = {false, false};
  baseline.death_at = {RevocationPlan::kSurvives, RevocationPlan::kSurvives};
  EXPECT_DOUBLE_EQ(baseline.cost(3600.0), 2.0);
}

TEST(Lifetime, MergeIntoAppendsToAnExistingPlan) {
  fault::FaultPlan fplan = fault::parse_fault_plan("crash 40 0\n");
  const RevocationPlan rplan = plan_revocations(4, exp_opts(0.5, 7));
  rplan.merge_into(fplan);
  EXPECT_EQ(fplan.revocations.size(), rplan.revocations.size());
  EXPECT_EQ(fplan.size(), 1u + rplan.revocations.size());
}

// --- the manager's reactions ------------------------------------------------

std::uint64_t counter(Cluster& cluster, const char* name) {
  return cluster.sim().trace().counters().value(name);
}

/// Two single-slot nodes, node 1 transient and doomed; four sequential
/// light mappers keep both nodes busy when the warning lands.
struct RevocationRig {
  explicit RevocationRig(Reaction reaction, const std::string& scripted = "",
                         double death = 60.0, double warning = 30.0) {
    ClusterConfig cfg = paper_cluster();
    cfg.num_nodes = 2;
    cfg.hadoop.tracker_expiry = seconds(9);
    cfg.hadoop.expiry_check_interval = seconds(1);
    cluster = std::make_unique<Cluster>(cfg);
    cluster->set_scheduler(std::make_unique<FifoScheduler>());
    for (int i = 0; i < 4; ++i) {
      cluster->submit(single_task_job("map" + std::to_string(i), 0, light_map_task()));
    }
    plan.transient = {false, true};
    plan.death_at = {RevocationPlan::kSurvives, death};
    plan.revocations.push_back({death, cluster->node(1), warning});
    fault::FaultPlan fplan =
        scripted.empty() ? fault::FaultPlan{} : fault::parse_fault_plan(scripted);
    plan.merge_into(fplan);
    injector = std::make_unique<fault::FaultInjector>(*cluster, std::move(fplan));
    manager = std::make_unique<RevocationManager>(*cluster, *injector, plan, reaction);
  }

  RevocationPlan plan;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<RevocationManager> manager;
};

TEST(Manager, CheckpointOnWarningEvacuatesAndResumesElsewhere) {
  RevocationRig rig(Reaction::Checkpoint);
  rig.cluster->run_until(3000.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done());
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsHandled), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsLate), 0u);
  // The task running on node 1 at t=30 was checkpoint-preempted, its
  // checkpoint evacuated off the doomed disk, and the resume relaunched
  // it on the survivor.
  EXPECT_GE(counter(*rig.cluster, trace::names::kRevokeDrainCheckpoints), 1u);
  EXPECT_GE(counter(*rig.cluster, trace::names::kRevokeEvacuations), 1u);
  EXPECT_GE(counter(*rig.cluster, trace::names::kJtCheckpointsEvacuated), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kFaultRevocationWarnings), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kFaultRevocations), 1u);
}

TEST(Manager, MigrateReactionShipsTheFrozenImageToTheSurvivor) {
  RevocationRig rig(Reaction::Migrate);
  rig.cluster->run_until(3000.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done());
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsHandled), 1u);
  EXPECT_GE(counter(*rig.cluster, trace::names::kRevokeDrainMigrations), 1u);
  EXPECT_GE(counter(*rig.cluster, trace::names::kRevokeMigrationsDone), 1u);
}

TEST(Manager, ReactionNoneOnlyDrainsAssignments) {
  RevocationRig rig(Reaction::None);
  rig.cluster->run_until(3000.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done());
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsHandled), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeDrainCheckpoints), 0u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeDrainMigrations), 0u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeEvacuations), 0u);
  // The doomed tracker stopped taking work the moment the warning landed.
  EXPECT_GE(counter(*rig.cluster, trace::names::kJtTrackersDraining), 1u);
}

TEST(Manager, WarningAfterTheNodeAlreadyCrashedIsACountedNoOp) {
  // Out-of-order plan: a scripted crash kills node 1 at t=5, long before
  // its revocation warning fires at t=30 (death 60, notice 30). The
  // warning must be dropped — counted late — without wedging the
  // checkpoint drain, and the scheduled death must not tear the node
  // down a second time.
  RevocationRig rig(Reaction::Checkpoint, "crash 5 1\n");
  rig.cluster->run_until(3000.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done()) << "late warning wedged the drain";
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsLate), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeWarningsHandled), 0u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kRevokeDrainCheckpoints), 0u);
  // The injector fired the warning but the death was the crash's: the
  // revocation teardown observed the node already gone.
  EXPECT_EQ(counter(*rig.cluster, trace::names::kFaultRevocationWarnings), 1u);
  EXPECT_EQ(counter(*rig.cluster, trace::names::kFaultRevocations), 0u);
}

TEST(Manager, CostComesFromThePlanAndTheReactionIsReported) {
  RevocationRig rig(Reaction::Checkpoint);
  EXPECT_EQ(rig.manager->reaction(), Reaction::Checkpoint);
  // Before the run the clock is 0; cost at a chosen horizon folds the
  // doomed node's death in.
  EXPECT_DOUBLE_EQ(rig.manager->cost(3600.0), 1.0 + 0.3 * 60.0 / 3600.0);
  EXPECT_TRUE(rig.manager->plan().is_transient(NodeId{1}));
}

}  // namespace
}  // namespace osap::revoke
