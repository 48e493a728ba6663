// Speculative execution (docs/SPECULATION.md).
//
// These tests drive the backup-attempt race end to end: the straggler
// detector estimating per-attempt completion times from heartbeat
// progress, copy launches onto leftover slots, and the first-finisher-
// wins resolution killing the loser budget-free through the attempt-only
// kill machinery. The composition cases are the interesting ones — a
// SIGTSTP-suspended or checkpoint-parked original as the speculation
// target, a copy (or original) whose tracker dies mid-race, and the
// MapOutputLost re-execution path running with the detector live.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "fault/injector.hpp"
#include "sched/dummy.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

using fault::FaultInjector;
using fault::parse_fault_plan;

/// Count emitted cluster events by type (the tests' view of the race).
struct EventCounts {
  explicit EventCounts(JobTracker& jt) {
    jt.add_event_hook([this](const ClusterEvent& e) { ++counts[static_cast<int>(e.type)]; });
  }
  [[nodiscard]] int of(ClusterEventType type) const {
    const auto it = counts.find(static_cast<int>(type));
    return it == counts.end() ? 0 : it->second;
  }
  std::map<int, int> counts;
};

/// N single-map-slot workers with speculation armed. The detector's
/// defaults (slowness 1.5, 15 s minimum runtime, cap 1) are kept unless a
/// test overrides them.
ClusterConfig spec_cluster(int nodes) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = nodes;
  cfg.hadoop.speculative_execution = true;
  return cfg;
}

/// Two ~77 s mappers on their own nodes; the test then freezes task 0 so
/// its ETA blows past the job mean while task 1 supplies the baseline.
JobSpec two_map_job(Cluster& cluster, const std::string& name) {
  JobSpec job;
  job.name = name;
  TaskSpec straggler = light_map_task();
  straggler.preferred_node = cluster.node(0);
  TaskSpec baseline = light_map_task();
  baseline.preferred_node = cluster.node(1);
  job.tasks.push_back(straggler);
  job.tasks.push_back(baseline);
  return job;
}

/// A ~307 s mapper: the organic straggler for original-vs-copy races.
TaskSpec big_map_task() { return light_map_task(2 * GiB); }

/// Let in-flight kill acks land after Cluster::run() stopped at
/// all-jobs-done (the loser's cleanup outlives the job by a heartbeat).
void drain(Cluster& cluster, Duration grace = seconds(30)) {
  cluster.run_until(cluster.sim().now() + grace);
}

// --- detector gating --------------------------------------------------------

TEST(Speculation, OffByDefaultEvenWithObviousStraggler) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 3;
  ASSERT_FALSE(cfg.hadoop.speculative_execution);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, two_map_job(cluster, "race"));
  ds.at_progress("race", 0, 0.3,
                 [&ds] { ds.preempt("race", 0, PreemptPrimitive::Suspend); });
  cluster.run_until(250.0);

  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 0);
  EXPECT_EQ(cluster.job_tracker().task(ds.task_of("race", 0)).state, TaskState::Suspended);
}

TEST(Speculation, SingleTaskJobNeverSpeculates) {
  // With one candidate the job mean IS the task's own estimate, so the
  // slowness threshold can never trip — no matter how stuck the task is.
  Cluster cluster(spec_cluster(2));
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  TaskSpec solo = light_map_task();
  solo.preferred_node = cluster.node(0);
  cluster.submit_at(0.05, single_task_job("solo", 0, solo));
  ds.at_progress("solo", 0, 0.3, [&ds] { ds.preempt("solo", 0, PreemptPrimitive::Suspend); });
  cluster.run_until(300.0);

  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 0);
  EXPECT_FALSE(cluster.job_tracker().task(ds.task_of("solo", 0)).speculating());
}

// --- tentpole: the race, both outcomes --------------------------------------

// A SIGTSTP-suspended original is a legitimate speculation target: its
// progress freezes while elapsed time grows, so its ETA organically blows
// past the job mean. The copy wins (nothing ever resumes the original)
// and the parked original is killed budget-free.
TEST(Speculation, SuspendedOriginalLosesRaceToCopy) {
  Cluster cluster(spec_cluster(3));
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, two_map_job(cluster, "race"));
  ds.at_progress("race", 0, 0.3,
                 [&ds] { ds.preempt("race", 0, PreemptPrimitive::Suspend); });
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("race", 0));
  EXPECT_EQ(jt.job(ds.job_of("race")).state, JobState::Succeeded);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(2));  // the copy's output counts
  EXPECT_EQ(task.attempts_started, 2);
  EXPECT_EQ(task.attempts_speculative, 1);
  EXPECT_EQ(task.attempts_failed, 0);  // race losers never charge the budget
  EXPECT_FALSE(task.speculating());
  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationKilled), 1);  // the suspended original
  EXPECT_EQ(events.of(ClusterEventType::SpeculationLost), 0);
  EXPECT_EQ(events.of(ClusterEventType::TaskFailed), 0);
}

// A checkpoint-parked (Natjam) original has no process to kill: when the
// copy wins, the parked checkpoint is discarded in place.
TEST(Speculation, CheckpointParkedOriginalLosesRaceToCopy) {
  Cluster cluster(spec_cluster(3));
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, two_map_job(cluster, "race"));
  ds.at_progress("race", 0, 0.3,
                 [&ds] { ds.preempt("race", 0, PreemptPrimitive::NatjamCheckpoint); });
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("race", 0));
  EXPECT_EQ(jt.job(ds.job_of("race")).state, JobState::Succeeded);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(2));
  EXPECT_FALSE(task.checkpointed);
  EXPECT_EQ(task.spec.checkpoint_progress, 0.0);  // parked checkpoint discarded
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationKilled), 0);  // nothing to kill
  EXPECT_EQ(events.of(ClusterEventType::TaskFailed), 0);
}

// The organically slow original (4x the input of its sibling) outruns its
// late-started copy: first finisher wins, the copy is killed budget-free.
TEST(Speculation, OriginalWinsRaceAndCopyIsKilled) {
  Cluster cluster(spec_cluster(3));
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  JobSpec job;
  job.name = "skew";
  TaskSpec big = big_map_task();
  big.preferred_node = cluster.node(0);
  TaskSpec small = light_map_task();
  small.preferred_node = cluster.node(1);
  job.tasks.push_back(big);
  job.tasks.push_back(small);
  cluster.submit_at(0.05, job);
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("skew", 0));
  EXPECT_EQ(jt.job(ds.job_of("skew")).state, JobState::Succeeded);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(0));  // the original's output counts
  EXPECT_EQ(task.attempts_started, 2);
  EXPECT_EQ(task.attempts_speculative, 1);
  EXPECT_EQ(task.attempts_failed, 0);
  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 0);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationKilled), 1);  // the losing copy
  EXPECT_EQ(events.of(ClusterEventType::TaskFailed), 0);
}

// --- composition with the failure model -------------------------------------

TEST(Speculation, CopyTrackerLostMidRaceDissolvesTheRace) {
  ClusterConfig cfg = spec_cluster(3);
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  JobSpec job;
  job.name = "skew";
  TaskSpec big = big_map_task();
  big.preferred_node = cluster.node(0);
  TaskSpec small = light_map_task();
  small.preferred_node = cluster.node(1);
  job.tasks.push_back(big);
  job.tasks.push_back(small);
  cluster.submit_at(0.05, job);
  // The copy lands on node 2 once the big task trips the detector (~16 s);
  // the node then dies under it mid-race.
  FaultInjector injector(cluster, parse_fault_plan("crash 60 2\n"));
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("skew", 0));
  EXPECT_EQ(jt.job(ds.job_of("skew")).state, JobState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(0));  // the original carried on
  EXPECT_EQ(task.attempts_started, 2);
  EXPECT_EQ(task.attempts_failed, 0);  // a lost copy charges nothing
  EXPECT_FALSE(task.speculating());
  EXPECT_TRUE(jt.tracker_lost(cluster.tracker(cluster.node(2)).id()));
  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationLost), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 0);
  EXPECT_EQ(events.of(ClusterEventType::TaskLost), 0);  // the primary never forfeited
}

TEST(Speculation, OriginalTrackerLostMidRacePromotesTheCopy) {
  ClusterConfig cfg = spec_cluster(3);
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  JobSpec job;
  job.name = "skew";
  TaskSpec big = big_map_task();
  big.preferred_node = cluster.node(0);
  TaskSpec small = light_map_task();
  small.preferred_node = cluster.node(1);
  job.tasks.push_back(big);
  job.tasks.push_back(small);
  cluster.submit_at(0.05, job);
  // This time the *original's* node dies: instead of requeueing from
  // scratch (PR 4's rule for a lost attempt), the racing copy is adopted.
  FaultInjector injector(cluster, parse_fault_plan("crash 60 0\n"));
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("skew", 0));
  EXPECT_EQ(jt.job(ds.job_of("skew")).state, JobState::Succeeded);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(2));  // finished as the promoted copy
  EXPECT_EQ(task.attempts_started, 2);              // primary + backup, no third launch
  EXPECT_EQ(task.attempts_failed, 0);
  EXPECT_FALSE(task.speculating());
  EXPECT_EQ(events.of(ClusterEventType::SpeculationPromoted), 1);
  EXPECT_EQ(events.of(ClusterEventType::TaskLost), 1);  // the forfeited original
  EXPECT_EQ(events.of(ClusterEventType::TaskSpeculated), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 0);  // promotion, not a win
}

// PR 4's completed-map re-execution (MapOutputLost) must compose with a
// live detector: the rolled-back map restarts clean — no stale backup
// binding, no double-spawned copies — and the shuffling reduce is still
// released by the re-executed map.
TEST(Speculation, LostMapOutputReexecutionStartsClean) {
  ClusterConfig cfg = spec_cluster(2);
  cfg.hadoop.tracker_expiry = seconds(9);
  cfg.hadoop.expiry_check_interval = seconds(1);
  Cluster cluster(cfg);
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  JobSpec job;
  job.name = "mr";
  TaskSpec map_a = light_map_task(256 * MiB);
  map_a.preferred_node = cluster.node(0);
  TaskSpec map_b = light_map_task(512 * MiB);
  map_b.preferred_node = cluster.node(1);
  TaskSpec reduce;
  reduce.type = TaskType::Reduce;
  reduce.shuffle_bytes = 128 * MiB;
  reduce.sort_cpu_seconds = 5.0;
  reduce.input_bytes = 0;
  reduce.output_bytes = 64 * MiB;
  reduce.framework_memory = 160 * MiB;
  reduce.preferred_node = cluster.node(1);
  job.tasks.push_back(map_a);
  job.tasks.push_back(map_b);
  job.tasks.push_back(reduce);
  cluster.submit_at(0.05, job);
  FaultInjector injector(cluster, parse_fault_plan("crash 45 0\n"));
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  EXPECT_EQ(jt.job(ds.job_of("mr")).state, JobState::Succeeded);
  EXPECT_EQ(events.of(ClusterEventType::MapOutputLost), 1);
  const Task& rerun = jt.task(ds.task_of("mr", 0));
  EXPECT_EQ(rerun.attempts_started, 2);  // once on node 0, re-run on node 1
  EXPECT_EQ(rerun.attempts_speculative, 0);
  EXPECT_EQ(rerun.completed_node, cluster.node(1));
  EXPECT_FALSE(rerun.speculating());
  EXPECT_FALSE(jt.task(ds.task_of("mr", 1)).speculating());
  EXPECT_FALSE(jt.task(ds.task_of("mr", 2)).speculating());
  EXPECT_EQ(jt.task(ds.task_of("mr", 2)).state, TaskState::Succeeded);
}

// --- the backup-attempt budget ----------------------------------------------

TEST(Speculation, CapBoundsConcurrentCopiesPerJob) {
  // Two equally slow stragglers qualify at the same sweep; the per-job cap
  // decides how many actually get copies.
  const auto speculated_with_cap = [](int cap) {
    ClusterConfig cfg = paper_cluster();
    cfg.num_nodes = 5;
    cfg.hadoop.map_slots = 2;  // leftover slots everywhere
    cfg.hadoop.speculative_execution = true;
    cfg.hadoop.speculative_cap = cap;
    Cluster cluster(cfg);
    EventCounts events(cluster.job_tracker());
    auto sched = std::make_unique<DummyScheduler>(cluster);
    DummyScheduler& ds = *sched;
    cluster.set_scheduler(std::move(sched));
    JobSpec job;
    job.name = "pair";
    for (int i = 0; i < 2; ++i) {
      TaskSpec big = big_map_task();
      big.preferred_node = cluster.node(i);
      job.tasks.push_back(big);
    }
    for (int i = 0; i < 2; ++i) {
      TaskSpec small = light_map_task();
      small.preferred_node = cluster.node(2 + i);
      job.tasks.push_back(small);
    }
    cluster.submit_at(0.05, job);
    cluster.run();
    drain(cluster);
    EXPECT_EQ(cluster.job_tracker().job(ds.job_of("pair")).state, JobState::Succeeded);
    return events.of(ClusterEventType::TaskSpeculated);
  };

  EXPECT_EQ(speculated_with_cap(1), 1);  // budget exhausted after one copy
  EXPECT_EQ(speculated_with_cap(2), 2);  // both stragglers race
}

// --- scheduler-driven copy preemption ----------------------------------------

TEST(Speculation, KillSpeculativeReapsOnlyTheCopy) {
  Cluster cluster(spec_cluster(3));
  EventCounts events(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, two_map_job(cluster, "race"));
  ds.at_progress("race", 0, 0.3,
                 [&ds] { ds.preempt("race", 0, PreemptPrimitive::Suspend); });
  // The copy launches around t=45; preempt it at 60, then resume the
  // original, which finishes first from 30% progress.
  bool killed = false;
  cluster.sim().at(60.0, [&ds, &killed] { killed = ds.kill_speculative("race", 0); });
  cluster.sim().at(62.0, [&ds] { ds.restore("race", 0, PreemptPrimitive::Suspend); });
  cluster.run();
  drain(cluster);

  const JobTracker& jt = cluster.job_tracker();
  const Task& task = jt.task(ds.task_of("race", 0));
  EXPECT_TRUE(killed);
  EXPECT_EQ(task.state, TaskState::Succeeded);
  EXPECT_EQ(task.completed_node, cluster.node(0));  // the original finished it
  EXPECT_EQ(task.attempts_failed, 0);
  // The detector may re-speculate after the manual kill (the original's
  // rate stats stay poisoned by the suspension), but every copy must end
  // killed — none wins, none is lost.
  EXPECT_GE(events.of(ClusterEventType::TaskSpeculated), 1);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationKilled),
            events.of(ClusterEventType::TaskSpeculated));
  EXPECT_EQ(events.of(ClusterEventType::SpeculationWon), 0);
  EXPECT_EQ(events.of(ClusterEventType::SpeculationLost), 0);
}

// --- determinism of a near-tie ----------------------------------------------

// Original and copy engineered to finish within a couple of heartbeats of
// each other: whoever's Succeeded report the JobTracker applies first
// wins. The winner and the whole event stream must replay bit-identically.
TEST(Speculation, NearTieRaceResolvesDeterministically) {
  struct Outcome {
    std::uint64_t digest;
    NodeId winner;
    int won, killed;
  };
  const auto run_once = [] {
    Cluster cluster(spec_cluster(3));
    EventCounts events(cluster.job_tracker());
    auto sched = std::make_unique<DummyScheduler>(cluster);
    DummyScheduler& ds = *sched;
    cluster.set_scheduler(std::move(sched));
    cluster.submit_at(0.05, two_map_job(cluster, "race"));
    ds.at_progress("race", 0, 0.3,
                   [&ds] { ds.preempt("race", 0, PreemptPrimitive::Suspend); });
    // Copy launches ~45 s and would finish ~123 s; resuming the original
    // at 65 s leaves it ~54 s of work — both finish around t=121..123.
    cluster.sim().at(65.0, [&ds] { ds.restore("race", 0, PreemptPrimitive::Suspend); });
    cluster.run();
    drain(cluster);
    const Task& task = cluster.job_tracker().task(ds.task_of("race", 0));
    EXPECT_EQ(task.state, TaskState::Succeeded);
    return Outcome{cluster.trace_digest(), task.completed_node,
                   events.of(ClusterEventType::SpeculationWon),
                   events.of(ClusterEventType::SpeculationKilled)};
  };

  const Outcome first = run_once();
  const Outcome second = run_once();
  EXPECT_EQ(first.digest, second.digest) << "near-tie race is not reproducible";
  EXPECT_EQ(first.winner, second.winner);
  EXPECT_EQ(first.won, second.won);
  EXPECT_EQ(first.killed, second.killed);
}

// --- observability -----------------------------------------------------------

TEST(Speculation, CountersAndScanLandInObservabilityJson) {
  const std::string counters_path = "speculation_counters.json";
  const std::string trace_path = "speculation_trace.json";
  ClusterConfig cfg = spec_cluster(4);
  cfg.trace.enabled = true;
  cfg.trace.counters_file = counters_path;
  cfg.trace.trace_file = trace_path;
  Cluster cluster(cfg);
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, two_map_job(cluster, "race"));
  ds.at_progress("race", 0, 0.3,
                 [&ds] { ds.preempt("race", 0, PreemptPrimitive::Suspend); });
  // A long keeper job (own job => never speculated) holds the cluster
  // open past the race so the loser's kill ack reaches the counters.
  TaskSpec keeper = big_map_task();
  keeper.preferred_node = cluster.node(3);
  cluster.submit_at(0.06, single_task_job("keeper", 0, keeper));
  cluster.run();

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string counters = slurp(counters_path);
  EXPECT_NE(counters.find("\"speculation.launched\":1"), std::string::npos) << counters;
  EXPECT_NE(counters.find("\"speculation.won\":1"), std::string::npos);
  EXPECT_NE(counters.find("\"speculation.killed\":1"), std::string::npos);
  EXPECT_NE(counters.find("\"speculation.lost\":0"), std::string::npos);
  EXPECT_NE(counters.find("\"SpeculationScan\""), std::string::npos);
  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("speculate"), std::string::npos);
  std::remove(counters_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace osap
