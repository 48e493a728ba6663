#include "preempt/eviction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "preempt/primitive.hpp"

namespace osap {
namespace {

std::vector<EvictionCandidate> sample() {
  return {
      {TaskId{1}, 0.9, 512 * MiB, 10.0},
      {TaskId{2}, 0.2, 128 * MiB, 30.0},
      {TaskId{3}, 0.5, 2 * GiB, 20.0},
  };
}

TEST(Eviction, MostProgressPicksClosestToCompletion) {
  EXPECT_EQ(pick_victim(EvictionPolicy::MostProgress, sample()), TaskId{1});
}

TEST(Eviction, LeastProgressPicksFreshest) {
  EXPECT_EQ(pick_victim(EvictionPolicy::LeastProgress, sample()), TaskId{2});
}

TEST(Eviction, SmallestMemoryMinimizesPagingCost) {
  EXPECT_EQ(pick_victim(EvictionPolicy::SmallestMemory, sample()), TaskId{2});
}

TEST(Eviction, LastLaunchedPicksYoungest) {
  EXPECT_EQ(pick_victim(EvictionPolicy::LastLaunched, sample()), TaskId{2});
}

TEST(Eviction, EmptyCandidatesGiveInvalidId) {
  EXPECT_FALSE(pick_victim(EvictionPolicy::MostProgress, {}).valid());
}

TEST(Eviction, TieBreaksOnLowerTaskId) {
  std::vector<EvictionCandidate> ties = {
      {TaskId{7}, 0.5, 1 * GiB, 5.0},
      {TaskId{3}, 0.5, 1 * GiB, 5.0},
  };
  EXPECT_EQ(pick_victim(EvictionPolicy::MostProgress, ties), TaskId{3});
  EXPECT_EQ(pick_victim(EvictionPolicy::SmallestMemory, ties), TaskId{3});
}

// pick_victim claims a strict total order (policy key, then task id).
// That makes the choice a function of the candidate *set*, not the
// vector ordering collect_candidates happened to produce — the property
// the determinism digests lean on. Pin it: every rotation and the
// reversal of a tie-heavy pool must elect the same victim.
TEST(Eviction, VictimIsInvariantUnderCandidatePermutation) {
  const std::vector<EvictionCandidate> pool = {
      {TaskId{9}, 0.5, 1 * GiB, 5.0},  // ties with 4 and 12 on every key
      {TaskId{4}, 0.5, 1 * GiB, 5.0},
      {TaskId{12}, 0.5, 1 * GiB, 5.0},
      {TaskId{2}, 0.9, 2 * GiB, 1.0},  // distinct on every key
  };
  constexpr EvictionPolicy kPolicies[] = {
      EvictionPolicy::MostProgress,
      EvictionPolicy::LeastProgress,
      EvictionPolicy::SmallestMemory,
      EvictionPolicy::LastLaunched,
  };
  for (const EvictionPolicy policy : kPolicies) {
    const TaskId expected = pick_victim(policy, pool);
    ASSERT_TRUE(expected.valid());
    std::vector<EvictionCandidate> perm = pool;
    for (size_t i = 0; i < pool.size(); ++i) {
      std::rotate(perm.begin(), perm.begin() + 1, perm.end());
      EXPECT_EQ(pick_victim(policy, perm), expected)
          << to_string(policy) << " rotation " << i;
    }
    std::reverse(perm.begin(), perm.end());
    EXPECT_EQ(pick_victim(policy, perm), expected) << to_string(policy) << " reversed";
  }
}

TEST(Eviction, AllTiedElectsLowestTaskIdUnderEveryPolicy) {
  const std::vector<EvictionCandidate> ties = {
      {TaskId{7}, 0.5, 1 * GiB, 5.0},
      {TaskId{3}, 0.5, 1 * GiB, 5.0},
      {TaskId{11}, 0.5, 1 * GiB, 5.0},
  };
  EXPECT_EQ(pick_victim(EvictionPolicy::MostProgress, ties), TaskId{3});
  EXPECT_EQ(pick_victim(EvictionPolicy::LeastProgress, ties), TaskId{3});
  EXPECT_EQ(pick_victim(EvictionPolicy::SmallestMemory, ties), TaskId{3});
  EXPECT_EQ(pick_victim(EvictionPolicy::LastLaunched, ties), TaskId{3});
}

TEST(Eviction, PolicyNames) {
  EXPECT_STREQ(to_string(EvictionPolicy::SmallestMemory), "smallest-memory");
  EXPECT_STREQ(to_string(EvictionPolicy::MostProgress), "most-progress");
}

TEST(Primitive, ParseRoundTrip) {
  EXPECT_EQ(parse_primitive("wait"), PreemptPrimitive::Wait);
  EXPECT_EQ(parse_primitive("kill"), PreemptPrimitive::Kill);
  EXPECT_EQ(parse_primitive("susp"), PreemptPrimitive::Suspend);
  EXPECT_EQ(parse_primitive("suspend"), PreemptPrimitive::Suspend);
  EXPECT_EQ(parse_primitive("natjam"), PreemptPrimitive::NatjamCheckpoint);
  EXPECT_EQ(parse_primitive("checkpoint"), PreemptPrimitive::NatjamCheckpoint);
  EXPECT_EQ(parse_primitive("requeue"), PreemptPrimitive::Requeue);
  EXPECT_THROW(parse_primitive("bogus"), SimError);
  EXPECT_STREQ(to_string(PreemptPrimitive::Suspend), "susp");
}

// Adding an enumerator without a spelling (or vice versa) breaks here,
// not in some sweep config three layers up.
TEST(Primitive, ExhaustiveRoundTrip) {
  for (const PreemptPrimitive p : kAllPrimitives) {
    EXPECT_STRNE(to_string(p), "?");
    EXPECT_EQ(parse_primitive(to_string(p)), p);
  }
}

TEST(Primitive, ParseErrorNamesValueAndEverySpelling) {
  try {
    parse_primitive("sigstop");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sigstop"), std::string::npos) << msg;
    EXPECT_NE(msg.find(kPrimitiveSpellings), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace osap
