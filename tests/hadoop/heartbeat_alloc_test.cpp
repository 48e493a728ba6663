// Allocation guard for the heartbeat round trip: in a steady state, a
// heartbeat's status, its delivery, the JobTracker's handling, the
// scheduler pass, the response and its delivery allocate nothing.
//
// Its own executable, because it replaces the global operator new with a
// counting one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <utility>

#include "hadoop/cluster.hpp"
#include "sched/fifo.hpp"
#include "sched/hfsp.hpp"
#include "workload/profiles.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace osap {
namespace {

enum class Sched { Fifo, Hfsp };

// ctest names each case by this value: .../fifo, .../hfsp.
void PrintTo(Sched s, std::ostream* os) { *os << (s == Sched::Fifo ? "fifo" : "hfsp"); }

class HeartbeatAllocation : public ::testing::TestWithParam<Sched> {};

// Two nodes, each running one job's single long map task. Its input is
// read in the first seconds; from then on the task only parses, so each
// heartbeat reports new progress (re-keying its job's size) and nothing
// but the heartbeat loop and the lease sweep schedules events.
TEST_P(HeartbeatAllocation, SteadyStateRoundTripAllocatesNothing) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.audit.enabled = false;
  Cluster cluster(cfg);
  if (GetParam() == Sched::Fifo) {
    cluster.set_scheduler(std::make_unique<FifoScheduler>());
  } else {
    cluster.set_scheduler(std::make_unique<HfspScheduler>());
  }
  for (int n = 0; n < 2; ++n) {
    TaskSpec spec = light_map_task(2 * GiB);
    spec.preferred_node = cluster.node(n);
    std::string name = "long";
    name += std::to_string(n);
    cluster.submit(single_task_job(std::move(name), 0, spec));
  }
  // Past the launches and the input reads: ~5 s of disk at 140 MiB/s
  // against ~300 s of parsing.
  cluster.run_until(40.0);
  const JobTracker& jt = cluster.job_tracker();
  for (JobId id : jt.jobs_in_order()) {
    const Task& task = jt.task(jt.job(id).tasks[0]);
    ASSERT_EQ(task.state, TaskState::Running) << task.id;
    ASSERT_GT(task.progress, 0.0) << task.id;
  }

  const trace::CounterRegistry& counters = cluster.sim().trace().counters();
  const std::uint64_t handled_before = counters.value("jobtracker.heartbeats_handled");
  const double progress_before = jt.task(jt.job(jt.jobs_in_order()[0]).tasks[0]).progress;
  const std::uint64_t allocations_before = g_allocations;
  cluster.run_until(40.0 + 12 * cfg.hadoop.heartbeat_interval);
  const std::uint64_t allocations = g_allocations - allocations_before;
  const std::uint64_t handled = counters.value("jobtracker.heartbeats_handled") - handled_before;

  // At least ten round trips per tracker, each moving its job's size.
  EXPECT_GE(handled, 2u * 10u);
  EXPECT_GT(jt.task(jt.job(jt.jobs_in_order()[0]).tasks[0]).progress, progress_before);
  EXPECT_EQ(allocations, 0u) << allocations << " heap allocations over " << handled
                             << " heartbeat round trips";
}

INSTANTIATE_TEST_SUITE_P(Schedulers, HeartbeatAllocation,
                         ::testing::Values(Sched::Fifo, Sched::Hfsp));

}  // namespace
}  // namespace osap
