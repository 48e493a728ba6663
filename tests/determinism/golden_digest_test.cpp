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

#include "workloads.hpp"

namespace osap {
namespace {

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

}  // namespace
}  // namespace osap
