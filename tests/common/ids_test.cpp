#include "common/ids.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

namespace osap {
namespace {

TEST(Ids, DefaultIsInvalid) {
  JobId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(JobId{0}.valid());
}

TEST(Ids, EqualityAndOrdering) {
  EXPECT_EQ(TaskId{1}, TaskId{1});
  EXPECT_NE(TaskId{1}, TaskId{2});
  EXPECT_LT(TaskId{1}, TaskId{2});
}

TEST(Ids, DistinctTypesDoNotMix) {
  static_assert(!std::is_convertible_v<JobId, TaskId>);
  static_assert(!std::is_convertible_v<std::uint64_t, JobId>);
}

TEST(Ids, Printing) {
  std::ostringstream os;
  os << JobId{7} << " " << Pid{} << " " << NodeId{3};
  EXPECT_EQ(os.str(), "job_7 pid_<invalid> node_3");
}

TEST(Ids, Hashable) {
  std::unordered_set<AttemptId> set;
  set.insert(AttemptId{1});
  set.insert(AttemptId{2});
  set.insert(AttemptId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, GeneratorIsMonotonic) {
  IdGenerator<JobId> gen;
  const JobId a = gen.next();
  const JobId b = gen.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_EQ(a, JobId{0});
}

}  // namespace
}  // namespace osap
