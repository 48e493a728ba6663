// Golden trace digests: the double-run tests prove each workload is
// self-consistent, but only a committed constant proves a *refactor*
// preserved the event stream. These values were captured from the
// binary-heap EventQueue and full-scan JobTracker sweeps immediately
// before the calendar-queue / incremental-sweep overhaul (docs/PERF.md).
// The correctness law of that overhaul, and of the 4-ary heap that later
// replaced the calendar queue, is that every one of them still matches
// bit for bit. Regenerate only for an intentional model change, never
// for a performance change:
//   build/tests/determinism_test --gtest_filter='GoldenDigest.*' prints
//   the expected-vs-actual pairs on mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "workloads.hpp"

namespace osap {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The digits that follow `key` in `line`.
std::string number_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + key.size();
  return line.substr(from, line.find_first_not_of("0123456789", from) - from);
}

/// (timestamp in µs, tracker id) of every `name` instant in a Chrome trace
/// written one event per line, in trace order.
std::vector<std::pair<std::string, std::string>> tracker_instants(const std::string& trace,
                                                                   const std::string& name) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream lines(trace);
  const std::string tag = "\"name\":\"" + name + "\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"i\"") == std::string::npos || line.find(tag) == std::string::npos) {
      continue;
    }
    out.emplace_back(number_after(line, "\"ts\":"), number_after(line, "\"tracker\":"));
  }
  return out;
}

TEST(GoldenDigest, MapHeavy) {
  EXPECT_EQ(run_map_heavy(42), 0xb06d622b8d43babdull);
}

TEST(GoldenDigest, PreemptionHeavy) {
  EXPECT_EQ(run_preemption_heavy(7), 0xa610333863ca6157ull);
}

TEST(GoldenDigest, MemoryPressure) {
  EXPECT_EQ(run_memory_pressure(13), 0xf23eb4364ecb6e4full);
}

TEST(GoldenDigest, FaultStorm) {
  EXPECT_EQ(run_fault_storm(21), 0x6cd30b115b5ca44full);
}

TEST(GoldenDigest, SpeculationStorm) {
  EXPECT_EQ(run_speculation_storm(34), 0xe09b767e883fc8e7ull);
}

// Captured at the introduction of the node-revocation subsystem: pins
// the warning/drain/evacuation event stream (src/revoke) the same way
// the constants above pin the simulator core.
TEST(GoldenDigest, RevocationStorm) {
  EXPECT_EQ(run_revocation_storm(11), 0x40bfb14cec8f5268ull);
}

// Captured before the per-heartbeat job walks became indexes (the jobs
// with parked tasks, the speculation agenda): HFSP + susp + speculation
// under contention. The counts guard the golden's reach — a workload that
// stopped suspending, resuming non-head victims or launching copies would
// pin nothing those indexes do.
TEST(GoldenDigest, HfspSpeculationContention) {
  HfspSpeculationStats stats;
  EXPECT_EQ(run_hfsp_speculation(5, false, &stats), 0x258847d50b8d4ba5ull);
  EXPECT_GT(stats.suspends, 0);
  EXPECT_GT(stats.non_head_resumes, 0);
  EXPECT_GT(stats.speculative_launches, 0);
}

// Captured before the TaskTracker's attempt table became an ordered map:
// the crash teardown walks it in task-id order and meets a parked attempt
// (SIGKILLed) and one in kill cleanup (retired without a signal). The
// flags guard the golden's reach.
TEST(GoldenDigest, CrashTearsDownParkedAndCleanupAttempts) {
  CrashTeardownStats stats;
  EXPECT_EQ(run_crash_mid_cleanup(3, false, &stats), 0x3c7a33d30bac67c8ull);
  EXPECT_TRUE(stats.parked);
  EXPECT_TRUE(stats.in_cleanup);
}

// Captured before the kernel's process table became an ordered map: the
// OOM killer's badness tie between two equal resident sets goes to the
// lower pid, the first one spawned.
TEST(GoldenDigest, OomTieGoesToTheLowestPid) {
  std::string victim;
  EXPECT_EQ(run_oom_tie(&victim), 0xc5205773f7af10cdull);
  EXPECT_EQ(victim, "twin0");
}

// At these seeds resume locality gives up on a parked attempt and queues
// its kill while the task still looks like a straggler. A backup copy
// launched then would still be bound when the kill's ack requeues the
// task, which task_terminal rejects; the straggler scan must skip a task
// whose primary is being killed. Both runs must finish every job.
TEST(GoldenDigest, HfspSpeculationSkipsATaskWhosePrimaryIsBeingKilled) {
  for (const std::uint64_t seed : {6u, 9u}) {
    HfspSpeculationStats stats;
    EXPECT_NO_THROW((void)run_hfsp_speculation(seed, false, &stats)) << "seed " << seed;
    EXPECT_GT(stats.speculative_launches, 0) << "seed " << seed;
  }
}

// Captured before the preempting schedulers' two eviction paths (direct
// primitive vs policy engine) were folded into one: pins each of fair,
// capacity, hfsp and deadline under kill, susp and natjam, with the
// swap probe off and on. A 2 GiB state on half the jobs and a 0.05
// watermark make demotion change the susp digest under fair and
// deadline; the last row pins capacity's per-queue `preempt=` merge.
// The wait and requeue rows were captured before the four schedulers'
// preemption machinery moved into one shared core. No trace job is
// pinned to a node, so requeue runs as kill and shares its digest.
TEST(GoldenDigest, EvictionPaths) {
  const std::string base =
      "workload=trace;jobs=16;nodes=4;state=2GiB;stateful=0.5;swap_watermark=0.05;"
      "deadline_factor=60;seed=8;";
  struct Cell {
    const char* scheduler;
    const char* primitive;
    const char* policy;
    std::uint64_t digest;
  };
  const Cell cells[] = {
      {"fair", "wait", "off", 0xd8b9c6b75a867fb1ull},
      {"fair", "wait", "primitive", 0xd8b9c6b75a867fb1ull},
      {"fair", "kill", "off", 0x7b979bf7a858569bull},
      {"fair", "kill", "primitive", 0x7b979bf7a858569bull},
      {"fair", "susp", "off", 0x67ab31cb3119c33cull},
      {"fair", "susp", "primitive", 0x7e8cb833cec33edcull},
      {"fair", "natjam", "off", 0x78414f032e14d645ull},
      {"fair", "natjam", "primitive", 0x78414f032e14d645ull},
      {"fair", "requeue", "off", 0x7b979bf7a858569bull},
      {"fair", "requeue", "primitive", 0x7b979bf7a858569bull},
      {"capacity", "wait", "off", 0x32f9ac73673bffc7ull},
      {"capacity", "wait", "primitive", 0x32f9ac73673bffc7ull},
      {"capacity", "kill", "off", 0xe4e0410173e0c5bfull},
      {"capacity", "kill", "primitive", 0xe4e0410173e0c5bfull},
      {"capacity", "susp", "off", 0xe9d43b7b6c9cb093ull},
      {"capacity", "susp", "primitive", 0xe9d43b7b6c9cb093ull},
      {"capacity", "natjam", "off", 0xfd38dfb0142787c8ull},
      {"capacity", "natjam", "primitive", 0xfd38dfb0142787c8ull},
      {"capacity", "requeue", "off", 0xe4e0410173e0c5bfull},
      {"capacity", "requeue", "primitive", 0xe4e0410173e0c5bfull},
      {"hfsp", "wait", "off", 0xfc2eb39dff6e8ca8ull},
      {"hfsp", "wait", "primitive", 0xfc2eb39dff6e8ca8ull},
      {"hfsp", "kill", "off", 0x22ca77d35350b708ull},
      {"hfsp", "kill", "primitive", 0x22ca77d35350b708ull},
      {"hfsp", "susp", "off", 0xdc18bda20a5a47b7ull},
      {"hfsp", "susp", "primitive", 0xdc18bda20a5a47b7ull},
      {"hfsp", "natjam", "off", 0x5ff8a2669caf2691ull},
      {"hfsp", "natjam", "primitive", 0x5ff8a2669caf2691ull},
      {"hfsp", "requeue", "off", 0x22ca77d35350b708ull},
      {"hfsp", "requeue", "primitive", 0x22ca77d35350b708ull},
      {"deadline", "wait", "off", 0x8390c0fabdaacdf7ull},
      {"deadline", "wait", "primitive", 0x8390c0fabdaacdf7ull},
      {"deadline", "kill", "off", 0xb221f5754278b097ull},
      {"deadline", "kill", "primitive", 0xb221f5754278b097ull},
      {"deadline", "susp", "off", 0x699fdd8e9718eb99ull},
      {"deadline", "susp", "primitive", 0x7f9093539fc535d8ull},
      {"deadline", "natjam", "off", 0x32d23f206919d3fcull},
      {"deadline", "natjam", "primitive", 0x32d23f206919d3fcull},
      {"deadline", "requeue", "off", 0xb221f5754278b097ull},
      {"deadline", "requeue", "primitive", 0xb221f5754278b097ull},
  };
  for (const Cell& c : cells) {
    const std::string desc = base + "queues=prod:0.5|batch:0.5;scheduler=" + c.scheduler +
                             ";primitive=" + c.primitive + ";policy=" + c.policy;
    SCOPED_TRACE(desc);
    const core::ResultRecord rec = core::run_descriptor(core::RunDescriptor::parse(desc));
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_EQ(rec.trace_digest, c.digest);
  }
  const core::ResultRecord per_queue = core::run_descriptor(core::RunDescriptor::parse(
      base + "scheduler=capacity;queues=prod:0.5:kill|batch:0.5:susp;policy=off"));
  ASSERT_TRUE(per_queue.ok) << per_queue.error;
  EXPECT_EQ(per_queue.trace_digest, 0x78fb18e0c10aa0baull);
}

// Captured before the JobTracker's lease wheel gave way to a sweep of the
// tracker slots. Heartbeats from trackers 1 and 2 are dropped from t=5 to
// t=40, so both leases have run out by the sweep at t=36, which declares
// them lost together, in ascending id order. Both rejoin through a
// ReinitTracker order; node 2 then crashes at t=60 and its tracker is
// lost again at t=90.
TEST(GoldenDigest, TwoTrackersExpireInOneSweep) {
  const std::filesystem::path dir(::testing::TempDir());
  core::RunOptions opts;
  opts.counters_file = (dir / "two_trackers_counters.json").string();
  opts.trace_file = (dir / "two_trackers_trace.json").string();
  const core::ResultRecord rec = core::run_descriptor(
      core::RunDescriptor::parse("workload=trace;nodes=4;faults=drop-heartbeats 5 40 1|"
                                 "drop-heartbeats 5 40 2|crash 60 2"),
      opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.trace_digest, 0x4e54f54201149edaull);
  const std::string counters = slurp(opts.counters_file);
  EXPECT_NE(counters.find("\"jobtracker.trackers_lost\":3"), std::string::npos) << counters;
  EXPECT_NE(counters.find("\"jobtracker.tracker_reinits\":2"), std::string::npos) << counters;
  const std::string trace = slurp(opts.trace_file);
  using Instants = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(tracker_instants(trace, "tracker_lost"),
            (Instants{{"36000000", "1"}, {"36000000", "2"}, {"90000000", "2"}}));
  const Instants reinits = tracker_instants(trace, "tracker_reinit");
  ASSERT_EQ(reinits.size(), 2u);
  EXPECT_EQ(reinits[0].second, "1");
  EXPECT_EQ(reinits[1].second, "2");
  std::filesystem::remove(opts.counters_file);
  std::filesystem::remove(opts.trace_file);
}

// Captured before the progress watches moved into a table on the
// Cluster: the two_job cells of the paper's grid, where the dummy
// scheduler's 100 ms progress poll launches th at r% of tl. Figs. 2 and 3
// (no state, then 2 GiB on both tasks) under each primitive at three
// progress points, one Fig. 4 point and one Natjam point.
TEST(GoldenDigest, PaperGrid) {
  struct Cell {
    const char* desc;
    std::uint64_t digest;
  };
  const Cell cells[] = {
      {"primitive=wait;r=0.1;tl_state=0;th_state=0", 0x1ca65668a65bb7fbull},
      {"primitive=wait;r=0.5;tl_state=0;th_state=0", 0x94f437ded2078331ull},
      {"primitive=wait;r=0.9;tl_state=0;th_state=0", 0x58a6d701fa9bf0b7ull},
      {"primitive=kill;r=0.1;tl_state=0;th_state=0", 0x199499c5e2c40d25ull},
      {"primitive=kill;r=0.5;tl_state=0;th_state=0", 0x005f2f8eb09fb61full},
      {"primitive=kill;r=0.9;tl_state=0;th_state=0", 0xc980412f0784d87eull},
      {"primitive=susp;r=0.1;tl_state=0;th_state=0", 0x5bb592c6deeff56cull},
      {"primitive=susp;r=0.5;tl_state=0;th_state=0", 0x387fcda559d91b31ull},
      {"primitive=susp;r=0.9;tl_state=0;th_state=0", 0x1720e3f283bc4ff6ull},
      {"primitive=wait;r=0.1;tl_state=2GiB;th_state=2GiB", 0x391e4ac280ebe19eull},
      {"primitive=wait;r=0.5;tl_state=2GiB;th_state=2GiB", 0x176045b19aa9a1cbull},
      {"primitive=wait;r=0.9;tl_state=2GiB;th_state=2GiB", 0x3e44d65fe2d9460aull},
      {"primitive=kill;r=0.1;tl_state=2GiB;th_state=2GiB", 0x12c0d767132bce8dull},
      {"primitive=kill;r=0.5;tl_state=2GiB;th_state=2GiB", 0xc9eb077f9220ca49ull},
      {"primitive=kill;r=0.9;tl_state=2GiB;th_state=2GiB", 0x6f0d2876cfbb689aull},
      {"primitive=susp;r=0.1;tl_state=2GiB;th_state=2GiB", 0x3cb7a8a43a23c091ull},
      {"primitive=susp;r=0.5;tl_state=2GiB;th_state=2GiB", 0xc6275adbb50add3dull},
      {"primitive=susp;r=0.9;tl_state=2GiB;th_state=2GiB", 0x16956b8b1c641546ull},
      {"primitive=susp;r=0.5;tl_state=2560MiB;th_state=1280MiB", 0xb42ec173dc7f10d9ull},
      {"primitive=natjam;r=0.5;tl_state=1GiB;th_state=0", 0xb4f78fcd112c158eull},
  };
  for (const Cell& c : cells) {
    const std::string desc = std::string("workload=two_job;seed=1;") + c.desc;
    SCOPED_TRACE(desc);
    const core::ResultRecord rec = core::run_descriptor(core::RunDescriptor::parse(desc));
    ASSERT_TRUE(rec.ok) << rec.error;
    EXPECT_EQ(rec.trace_digest, c.digest);
  }
}

// Captured before the progress watches moved into a table on the
// Cluster: job b's watch is armed from inside job a's watch callback,
// which grows the table while a's poll runs, and job c finishes before
// its threshold. Each of a's and b's callbacks fires once; c's never.
TEST(GoldenDigest, WatchArmedInsideAWatch) {
  NestedWatchStats stats;
  EXPECT_EQ(run_nested_watches(4, false, &stats), 0x936bd68a6028d2d9ull);
  EXPECT_EQ(stats.a_fired, 1);
  EXPECT_EQ(stats.b_fired, 1);
  EXPECT_EQ(stats.c_fired, 0);
}

}  // namespace
}  // namespace osap
