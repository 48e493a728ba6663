// The descriptor-driven run facade (src/core/run.hpp) is the contract
// the osapd sweep harness stands on: canonical descriptor texts are
// unique per configuration, runs are deterministic and report failure
// in the record instead of throwing, and the harness tick hook is
// passive — it can observe and abort, never perturb the digest.
#include "core/run.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "workload/two_job.hpp"

namespace osap::core {
namespace {

// Big enough for the event loop to cross the 2048-event tick stride;
// the two-job workload finishes in ~700 events and never ticks.
constexpr const char* kTickableCell = "workload=trace;jobs=32;nodes=16;seed=7";

TEST(RunDescriptor, KeysStaySortedAndUnique) {
  RunDescriptor d;
  d.set("r", "0.3");
  d.set("primitive", "kill");
  d.set("r", "0.7");  // replace, not append
  EXPECT_EQ(d.canonical(), "primitive=kill;r=0.7");
  EXPECT_EQ(d.get("r", ""), "0.7");
  EXPECT_EQ(d.find("absent"), nullptr);

  // parse() accepts both separators and round-trips the canonical text.
  const RunDescriptor parsed = RunDescriptor::parse("r=0.7,primitive=kill");
  EXPECT_EQ(parsed.canonical(), d.canonical());
  EXPECT_EQ(parsed.digest(), d.digest());
  EXPECT_THROW((void)RunDescriptor::parse("no-equals-sign"), SimError);
}

TEST(RunDescriptor, DigestHexIsSixteenLowercaseDigits) {
  const RunDescriptor d = RunDescriptor::parse("primitive=susp");
  const std::string hex = d.digest_hex();
  ASSERT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(Normalize, MaterializesEveryTwoJobDefault) {
  const RunDescriptor d = normalize_descriptor(RunDescriptor{});
  EXPECT_EQ(d.canonical(),
            "jitter=0.02;primitive=susp;r=0.5;seed=1;th_state=0;tl_state=0;workload=two_job");
}

TEST(Normalize, SpellingDefaultsOutDoesNotChangeTheDigest) {
  // The cache is keyed by the config digest, so two spellings of one
  // cell must collapse to one canonical text.
  const RunDescriptor terse = normalize_descriptor(RunDescriptor::parse("primitive=kill"));
  const RunDescriptor spelled = normalize_descriptor(RunDescriptor::parse(
      "workload=two_job;primitive=kill;r=0.5;seed=1;tl_state=0;th_state=0;jitter=0.02"));
  EXPECT_EQ(terse.canonical(), spelled.canonical());
  EXPECT_EQ(terse.digest(), spelled.digest());
}

TEST(Normalize, RejectsUnknownWorkloadAndMiskeyedAxes) {
  EXPECT_THROW((void)normalize_descriptor(RunDescriptor::parse("workload=nope")), SimError);
  // A typoed axis must fail loudly, not silently run the default cell.
  EXPECT_THROW((void)normalize_descriptor(RunDescriptor::parse("primitve=kill")), SimError);
  EXPECT_THROW((void)normalize_descriptor(RunDescriptor::parse("workload=trace;jitter=0.1")),
               SimError);
}

TEST(Normalize, FaultWorkerIsDigestVisibleOnEveryWorkload) {
  // The osapd pool's fault-injection key rides through normalization so
  // faulted cells never alias their clean twins in the cache.
  const RunDescriptor clean = normalize_descriptor(RunDescriptor{});
  const RunDescriptor faulted =
      normalize_descriptor(RunDescriptor::parse("fault_worker=exit_always"));
  EXPECT_NE(clean.digest(), faulted.digest());
}

TEST(RunFacade, MatchesTheDirectTwoJobRun) {
  const ResultRecord rec =
      run_descriptor(RunDescriptor::parse("primitive=kill;r=0.3;seed=5"));
  ASSERT_TRUE(rec.ok) << rec.error;

  TwoJobParams params;
  params.primitive = PreemptPrimitive::Kill;
  params.progress_at_launch = 0.3;
  params.seed = 5;
  const TwoJobResult direct = run_two_job(params);
  EXPECT_EQ(rec.sojourn_th, direct.sojourn_th);
  EXPECT_EQ(rec.sojourn_tl, direct.sojourn_tl);
  EXPECT_EQ(rec.makespan, direct.makespan);
  EXPECT_EQ(rec.tl_swapped_out_mib, to_mib(direct.tl_swapped_out));
  EXPECT_EQ(rec.jobs, 2);
  EXPECT_GT(rec.events, 0u);
  EXPECT_NE(rec.trace_digest, 0u);
  EXPECT_FALSE(rec.counters.empty());
}

TEST(RunFacade, FailuresAreRecordedNotThrown) {
  // A sweep must survive a bad cell: errors land in the record.
  const ResultRecord rec = run_descriptor(RunDescriptor::parse("workload=nope"));
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("unknown workload"), std::string::npos) << rec.error;

  const ResultRecord miskeyed = run_descriptor(RunDescriptor::parse("bogus=1"));
  EXPECT_FALSE(miskeyed.ok);
  EXPECT_NE(miskeyed.error.find("not understood"), std::string::npos) << miskeyed.error;
}

// The crash kills tl's only node before tl reaches r, so th is never
// submitted. The record must name that cause, not fail inside the
// dummy scheduler's lookup of th.
TEST(RunFacade, TwoJobCellWhoseThNeverArrivesNamesTheCause) {
  const ResultRecord rec = run_descriptor(
      RunDescriptor::parse("primitive=natjam;r=0.5;tl_state=1GiB;faults=crash 40 0"));
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("two-job experiment: th was never submitted"), std::string::npos)
      << rec.error;
  EXPECT_EQ(rec.error.find("dummy scheduler"), std::string::npos) << rec.error;
}

TEST(RunFacade, TwentyDigitSeedRunsExactly) {
  // 15021278609987233951 is not a double; read through one it runs
  // seed 15021278609987233792.
  const ResultRecord rec =
      run_descriptor(RunDescriptor::parse("primitive=kill;seed=15021278609987233951"));
  ASSERT_TRUE(rec.ok) << rec.error;

  TwoJobParams params;
  params.primitive = PreemptPrimitive::Kill;
  params.seed = 15021278609987233951ull;
  const TwoJobResult direct = run_two_job(params);
  EXPECT_EQ(rec.sojourn_th, direct.sojourn_th);
  EXPECT_EQ(rec.sojourn_tl, direct.sojourn_tl);
  EXPECT_EQ(rec.makespan, direct.makespan);
}

TEST(RunFacade, NumericAxesRejectWhatTheyCannotReadExactly) {
  struct Bad {
    const char* cell;
    const char* key;
  };
  for (const Bad& bad : {Bad{"workload=trace;jobs=12.5", "jobs"},
                         Bad{"workload=trace;jobs=0", "jobs"},
                         Bad{"workload=trace;nodes=4x", "nodes"},
                         Bad{"seed=-1", "seed"},
                         Bad{"seed=1e30", "seed"},
                         Bad{"workload=trace;seed=99999999999999999999", "seed"},
                         Bad{"r=0.5x", "r"},
                         Bad{"r=nan", "r"},
                         Bad{"workload=trace;lifetime_model=exp;node_mix=0.5;warning_s=inf",
                             "warning_s"},
                         // The revocation axes are read without a lifetime model too.
                         Bad{"workload=trace;warning_s=abc", "warning_s"},
                         Bad{"workload=trace;node_mix=abc;lifetime_mean_s=-5", "node_mix"}}) {
    const ResultRecord rec = run_descriptor(RunDescriptor::parse(bad.cell));
    EXPECT_FALSE(rec.ok) << bad.cell;
    const std::string named = std::string("key '") + bad.key + "'";
    EXPECT_NE(rec.error.find(named), std::string::npos) << bad.cell << ": " << rec.error;
  }
}

TEST(RunFacade, UnknownSchedulerFailsItsCellNamingTheKnownOnes) {
  const ResultRecord rec =
      run_descriptor(RunDescriptor::parse("workload=trace;scheduler=lottery"));
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("'lottery'"), std::string::npos) << rec.error;
  EXPECT_NE(rec.error.find(kSchedulerNames), std::string::npos) << rec.error;
}

TEST(RunFacade, TraceWorkloadReplaysBitIdentically) {
  const RunDescriptor d = RunDescriptor::parse("workload=trace;jobs=8;seed=7");
  const ResultRecord a = run_descriptor(d);
  const ResultRecord b = run_descriptor(d);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sojourn_th, b.sojourn_th);
  EXPECT_EQ(a.makespan, b.makespan);
}

// At the trace workload's defaults (12 jobs) every scheduler makes the
// same decisions, so a cell there tests no scheduler. At 24 jobs on 4
// nodes fair sharing and size-based scheduling each run their own
// stream; CI checks `osap trace` against osapd at this cell per scheduler.
TEST(RunFacade, TraceCellSeparatesTheSchedulers) {
  const auto digest = [](const char* scheduler) {
    const ResultRecord rec = run_descriptor(RunDescriptor::parse(
        std::string("workload=trace;jobs=24;nodes=4;seed=7;scheduler=") + scheduler));
    EXPECT_TRUE(rec.ok) << scheduler << ": " << rec.error;
    return rec.trace_digest;
  };
  const auto fifo = digest("fifo");
  EXPECT_NE(digest("fair"), fifo);
  EXPECT_NE(digest("hfsp"), fifo);
}

TEST(RunFacade, TickHookIsPassive) {
  const RunDescriptor d = RunDescriptor::parse(kTickableCell);
  const ResultRecord plain = run_descriptor(d);
  ASSERT_TRUE(plain.ok) << plain.error;

  int calls = 0;
  RunOptions opts;
  opts.tick = [&calls]() { ++calls; };
  const ResultRecord ticked = run_descriptor(d, opts);
  ASSERT_TRUE(ticked.ok) << ticked.error;
  EXPECT_GT(calls, 0);  // the cell really is big enough to tick
  // The hook observed the run without perturbing it.
  EXPECT_EQ(ticked.trace_digest, plain.trace_digest);
  EXPECT_EQ(ticked.events, plain.events);
}

TEST(RunFacade, TickAbortBecomesAFailedRecord) {
  // The osapd RSS watchdog aborts by throwing from the tick; the reason
  // must surface in the record, not escape as an exception.
  RunOptions opts;
  opts.tick = []() { throw SimError("watchdog says stop"); };
  const ResultRecord rec = run_descriptor(RunDescriptor::parse(kTickableCell), opts);
  EXPECT_FALSE(rec.ok);
  EXPECT_NE(rec.error.find("watchdog says stop"), std::string::npos) << rec.error;
  EXPECT_NE(rec.config_digest, 0u);  // identity is stamped before the run
}

// In this cell a SIGCONT runs a suspended task's deferred work, which
// finishes the task and erases its TaskTracker entry inside the signal.
// The resume path used to read the entry's streaming helper afterwards,
// a heap-use-after-free the asan preset aborts on.
TEST(RunFacade, ResumeThatFinishesTheTaskLeavesNoDanglingRead) {
  const ResultRecord rec = run_descriptor(RunDescriptor::parse(
      "workload=trace;scheduler=fair;primitive=susp;policy=primitive;jobs=16;nodes=4;"
      "state=1GiB;stateful=0.3;swap_watermark=0.9;deadline_factor=60;seed=13"));
  EXPECT_TRUE(rec.ok) << rec.error;
}

// In this cell resume locality's delayed-kill fallback kills a Suspended
// task, and the next heartbeat asks for its resume while the kill is
// still queued. The JobTracker used to accept it, and the protocol
// auditor failed the run.
TEST(RunFacade, ResumeOfATaskWithAPendingKillIsRefused) {
  const ResultRecord rec = run_descriptor(
      RunDescriptor::parse("workload=trace;scheduler=hfsp;primitive=susp;jobs=8;nodes=4;seed=3"));
  EXPECT_TRUE(rec.ok) << rec.error;
}

// A revocation cell drives preemption from two engines, the scheduler's
// and the revocation manager's. Each used to attach its own protocol
// auditor, so every violation was reported twice; the JobTracker now owns
// the only one.
TEST(RunFacade, ARevocationCellRegistersOneProtocolAuditor) {
  const std::filesystem::path counters =
      std::filesystem::path(::testing::TempDir()) / "revoke_cell_counters.json";
  RunOptions opts;
  opts.counters_file = counters.string();
  const ResultRecord rec = run_descriptor(
      RunDescriptor::parse("workload=trace;scheduler=hfsp;primitive=susp;jobs=24;nodes=6;"
                           "lifetime_model=exp;lifetime_mean_s=450;warning_s=20;node_mix=0.5;"
                           "revoke_react=checkpoint;seed=12"),
      opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  std::ifstream in(counters);
  std::stringstream json;
  json << in.rdbuf();
  const std::string text = json.str();
  const std::string label = "\"label\":\"preempt-protocol\"";
  const std::size_t first = text.find(label);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(label, first + 1), std::string::npos) << text;
  std::filesystem::remove(counters);
}

}  // namespace
}  // namespace osap::core
