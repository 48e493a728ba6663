#include "workload/dummy_config.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

struct Rig {
  Rig() : cluster(paper_cluster()) {
    auto sched = std::make_unique<DummyScheduler>(cluster);
    ds = sched.get();
    cluster.set_scheduler(std::move(sched));
  }
  Cluster cluster;
  DummyScheduler* ds = nullptr;
};

constexpr const char* kPaperConfig = R"(
# the two-job experiment of section IV
job tl priority 0 tasks 1 input 512MiB state 0
job th priority 10 tasks 1 input 512MiB state 0
submit tl at 0.05
at-progress tl 0 50% submit th
at-progress tl 0 50% preempt tl 0 susp
on-complete th restore tl 0 susp
)";

TEST(DummyConfig, RunsThePaperExperiment) {
  Rig rig;
  std::istringstream in(kPaperConfig);
  load_dummy_config(in, *rig.ds, rig.cluster);
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  const Job& tl = jt.job(rig.ds->job_of("tl"));
  const Job& th = jt.job(rig.ds->job_of("th"));
  EXPECT_EQ(tl.state, JobState::Succeeded);
  EXPECT_EQ(th.state, JobState::Succeeded);
  // th preempted tl: short sojourn; tl resumed afterwards: one attempt.
  EXPECT_LT(th.sojourn(), 90.0);
  EXPECT_EQ(jt.task(tl.tasks[0]).attempts_started, 1);
}

TEST(DummyConfig, KillPrimitiveFromConfig) {
  Rig rig;
  std::istringstream in(R"(
job tl priority 0 tasks 1 input 512MiB state 0
job th priority 10 tasks 1 input 512MiB state 0
submit tl at 0.05
at-progress tl 0 40% submit th
at-progress tl 0 40% preempt tl 0 kill
)");
  load_dummy_config(in, *rig.ds, rig.cluster);
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  EXPECT_EQ(jt.task(jt.job(rig.ds->job_of("tl")).tasks[0]).attempts_started, 2);
}

TEST(DummyConfig, StatefulJobsAndMultipleTasks) {
  Rig rig;
  std::istringstream in(R"(
job wide priority 0 tasks 3 input 64MiB state 1GiB
submit wide at 0.1
)");
  load_dummy_config(in, *rig.ds, rig.cluster);
  rig.cluster.run_until(1.0);
  const Job& job = rig.cluster.job_tracker().job(rig.ds->job_of("wide"));
  ASSERT_EQ(job.tasks.size(), 3u);
  EXPECT_EQ(job.spec.tasks[0].state_memory, 1 * GiB);
  EXPECT_EQ(job.spec.tasks[0].input_bytes, 64 * MiB);
}

TEST(DummyConfig, OnCompleteSubmitChainsJobs) {
  Rig rig;
  std::istringstream in(R"(
job first priority 0 tasks 1 input 64MiB state 0
job second priority 0 tasks 1 input 64MiB state 0
submit first at 0.05
on-complete first submit second
)");
  load_dummy_config(in, *rig.ds, rig.cluster);
  rig.cluster.run();
  const JobTracker& jt = rig.cluster.job_tracker();
  const Job& a = jt.job(rig.ds->job_of("first"));
  const Job& b = jt.job(rig.ds->job_of("second"));
  EXPECT_EQ(b.state, JobState::Succeeded);
  EXPECT_GE(b.submitted_at, a.completed_at);
}

TEST(DummyConfig, CommentsAndBlankLinesIgnored) {
  Rig rig;
  std::istringstream in("\n# nothing here\n   \n# job x is commented out\n");
  load_dummy_config(in, *rig.ds, rig.cluster);
  SUCCEED();
}

TEST(DummyConfig, UnknownDirectiveFailsWithLineNumber) {
  Rig rig;
  std::istringstream in("job a priority 0 tasks 1 input 1MiB state 0\nfrobnicate a\n");
  try {
    load_dummy_config(in, *rig.ds, rig.cluster);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(DummyConfig, UnknownJobReferenceFails) {
  Rig rig;
  std::istringstream in("submit ghost at 1.0\n");
  EXPECT_THROW(load_dummy_config(in, *rig.ds, rig.cluster), SimError);
}

TEST(DummyConfig, MalformedJobLineFails) {
  Rig rig;
  std::istringstream in("job a priority 0 tasks 1\n");
  EXPECT_THROW(load_dummy_config(in, *rig.ds, rig.cluster), SimError);
}

TEST(DummyConfig, BadPercentageFails) {
  Rig rig;
  std::istringstream in(
      "job a priority 0 tasks 1 input 1MiB state 0\n"
      "at-progress a 0 150% submit a\n");
  EXPECT_THROW(load_dummy_config(in, *rig.ds, rig.cluster), SimError);
}

// Numbers are read exactly: a fractional task count or task index is a
// typo to report, not a value to truncate.
TEST(DummyConfig, FractionalNumbersFailWithLineNumber) {
  const char* const bad[] = {
      "job a priority 0 tasks 1.9 input 1MiB state 0\n",
      "job a priority 0.5 tasks 1 input 1MiB state 0\n",
      "job a priority 0 tasks 1 input 1MiB state 0\nat-progress a 1.7 50% submit a\n",
      "job a priority 0 tasks 1 input 1MiB state 0\nsubmit a at 0.05s\n",
      "job a priority 0 tasks 1 input 1MiB state 0\nat-progress a 0 nan% submit a\n",
  };
  for (const char* text : bad) {
    Rig rig;
    std::istringstream in(text);
    try {
      load_dummy_config(in, *rig.ds, rig.cluster);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("dummy config line "), std::string::npos) << e.what();
    }
  }
  Rig rig;
  std::istringstream in("job a priority 0 tasks 0 input 1MiB state 0\n");
  EXPECT_THROW(load_dummy_config(in, *rig.ds, rig.cluster), SimError);
}

TEST(ParseSize, Suffixes) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("123B"), 123u);
  EXPECT_EQ(parse_size("4KiB"), 4 * KiB);
  EXPECT_EQ(parse_size("512MiB"), 512 * MiB);
  EXPECT_EQ(parse_size("2GiB"), 2 * GiB);
  EXPECT_EQ(parse_size("2.5GiB"), gib(2.5));
  EXPECT_THROW(parse_size("12XB"), SimError);
  EXPECT_THROW(parse_size("oops"), SimError);
  EXPECT_THROW(parse_size("nanGiB"), SimError);
  EXPECT_THROW(parse_size("infGiB"), SimError);
}

}  // namespace
}  // namespace osap
