#include "workload/trace_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace osap {
namespace {

TEST(TraceFile, ParsesBasicJobs) {
  std::istringstream in(R"(
# name  arrival  input   shuffle  output
grep1   0        1GiB    0        1MiB
sort1   35       2GiB    512MiB   512MiB
)");
  const auto jobs = load_trace_file(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.name, "grep1");
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 0.0);
  // 1 GiB at 512 MiB blocks = 2 mappers, no reducer.
  EXPECT_EQ(jobs[0].spec.tasks.size(), 2u);
  // 2 GiB = 4 mappers + 1 reducer.
  EXPECT_EQ(jobs[1].spec.tasks.size(), 5u);
  EXPECT_EQ(jobs[1].spec.tasks.back().type, TaskType::Reduce);
  EXPECT_EQ(jobs[1].spec.tasks.back().shuffle_bytes, 512 * MiB);
}

TEST(TraceFile, PartialLastBlock) {
  std::istringstream in("j 0 768MiB 0 0\n");
  const auto jobs = load_trace_file(in);
  ASSERT_EQ(jobs[0].spec.tasks.size(), 2u);
  EXPECT_EQ(jobs[0].spec.tasks[0].input_bytes, 512 * MiB);
  EXPECT_EQ(jobs[0].spec.tasks[1].input_bytes, 256 * MiB);
}

TEST(TraceFile, OptionalStateColumnMakesHungryMappers) {
  std::istringstream in("learn 70 512MiB 0 1MiB 2GiB\n");
  const auto jobs = load_trace_file(in);
  ASSERT_EQ(jobs[0].spec.tasks.size(), 1u);
  EXPECT_EQ(jobs[0].spec.tasks[0].state_memory, 2 * GiB);
}

TEST(TraceFile, CustomBlockSize) {
  TraceFileConfig cfg;
  cfg.block_size = 128 * MiB;
  std::istringstream in("j 0 512MiB 0 0\n");
  const auto jobs = load_trace_file(in, cfg);
  EXPECT_EQ(jobs[0].spec.tasks.size(), 4u);
}

TEST(TraceFile, CommentsAndBlankLinesSkipped) {
  std::istringstream in("\n# nothing\n  \nj 1 64MiB 0 0\n");
  EXPECT_EQ(load_trace_file(in).size(), 1u);
}

TEST(TraceFile, RejectsUnsortedArrivals) {
  std::istringstream in("a 10 64MiB 0 0\nb 5 64MiB 0 0\n");
  EXPECT_THROW(load_trace_file(in), SimError);
}

TEST(TraceFile, RejectsMalformedLines) {
  std::istringstream bad1("j notanumber 64MiB 0 0\n");
  EXPECT_THROW(load_trace_file(bad1), SimError);
  std::istringstream bad2("j 0 64MiB\n");
  EXPECT_THROW(load_trace_file(bad2), SimError);
  std::istringstream bad3("j 0 64XB 0 0\n");
  EXPECT_THROW(load_trace_file(bad3), SimError);
  std::istringstream bad4("j 0 64MiB 0 0 1GiB junk\n");  // nothing follows the state
  EXPECT_THROW(load_trace_file(bad4), SimError);
  std::istringstream bad5("j 0s 64MiB 0 0\n");
  EXPECT_THROW(load_trace_file(bad5), SimError);
  std::istringstream bad6("j inf 64MiB 0 0\n");
  EXPECT_THROW(load_trace_file(bad6), SimError);
}

TEST(TraceFile, ZeroInputStillYieldsOneMapper) {
  std::istringstream in("tiny 0 0 0 0\n");
  const auto jobs = load_trace_file(in);
  EXPECT_EQ(jobs[0].spec.tasks.size(), 1u);
}

}  // namespace
}  // namespace osap
