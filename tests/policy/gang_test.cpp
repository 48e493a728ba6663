// SLURM-style gang rotation: time-sliced suspend/resume over an
// oversubscribed fifo cluster, swap-aware admission refusal, and the
// double-run digest witness for rotation determinism.
#include "policy/gang.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "sched/fifo.hpp"
#include "trace/names.hpp"
#include "workload/profiles.hpp"

namespace osap::policy {
namespace {

/// One node with two map slots, two 2-task jobs (4 tasks on 2 slots, so
/// the rotator sees contention from the first tick). fifo never preempts
/// on its own — every suspend/resume in the trace is the rotator's.
struct GangRig {
  explicit GangRig(GangOptions options, Bytes input = 64 * MiB) {
    ClusterConfig cfg = paper_cluster();
    cfg.hadoop.map_slots = 2;
    cluster = std::make_unique<Cluster>(cfg);
    cluster->set_scheduler(std::make_unique<FifoScheduler>());
    for (int i = 0; i < 2; ++i) {
      // Named local sidesteps GCC 12's -Wrestrict false positive on
      // literal + to_string temporaries (PR105329).
      const std::string name = "gang" + std::to_string(i);
      JobSpec spec = single_task_job(name, 0, light_map_task(input));
      spec.tasks.push_back(light_map_task(input));
      cluster->submit(spec);
    }
    gang = std::make_unique<GangRotator>(cluster->job_tracker(), options);
    gang->start();
  }
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<GangRotator> gang;
};

TEST(Gang, RotatesOversubscribedJobsToCompletion) {
  GangOptions options;
  options.slice = seconds(3);
  GangRig rig(options);
  rig.cluster->run_until(600.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done());
  // Both directions of the rotation actually happened: each job was
  // parked at least once and came back.
  EXPECT_GE(rig.gang->rotations(), 2);
  const auto& reg = rig.cluster->sim().trace().counters();
  EXPECT_GE(reg.value(trace::names::kPolicyGangSuspends), 2u);
  EXPECT_GE(reg.value(trace::names::kPolicyGangResumes), 2u);
  EXPECT_EQ(reg.value(trace::names::kPolicyGangRotations),
            static_cast<uint64_t>(rig.gang->rotations()));
}

TEST(Gang, SwapWatermarkRefusesAdmission) {
  GangOptions options;
  options.slice = seconds(3);
  options.swap_watermark = 0.9;
  options.probe = [](NodeId) { return 0.95; };  // every node reads hot
  GangRig rig(options);
  rig.cluster->run_until(600.0);
  EXPECT_TRUE(rig.cluster->job_tracker().all_jobs_done());
  // Parking was attempted (the cluster is contended) but every admission
  // was refused, so no task was ever gang-suspended.
  EXPECT_GT(rig.gang->admissions_refused(), 0);
  const auto& reg = rig.cluster->sim().trace().counters();
  EXPECT_EQ(reg.value(trace::names::kPolicyGangSuspends), 0u);
  EXPECT_EQ(reg.value(trace::names::kPolicyGangAdmissionRefused),
            static_cast<uint64_t>(rig.gang->admissions_refused()));
}

uint64_t run_gang_digest(uint64_t seed) {
  GangOptions options;
  options.slice = seconds(3);
  ClusterConfig cfg = paper_cluster();
  cfg.hadoop.map_slots = 2;
  Cluster cluster(cfg);
  cluster.set_scheduler(std::make_unique<FifoScheduler>());
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    // Appended, not `"g" + std::to_string(i)`: GCC 12 at -O3
    // reports a false -Wrestrict on literal + temporary (GCC bug 105329).
    std::string name = "g";
    name += std::to_string(i);
    JobSpec spec = single_task_job(name, 0, jitter_task(light_map_task(64 * MiB), rng));
    spec.tasks.push_back(jitter_task(light_map_task(64 * MiB), rng));
    cluster.submit(spec);
  }
  GangRotator gang(cluster.job_tracker(), options);
  gang.start();
  cluster.run_until(600.0);
  EXPECT_TRUE(cluster.job_tracker().all_jobs_done());
  EXPECT_GE(gang.rotations(), 2);
  return cluster.trace_digest();
}

TEST(Gang, RotationIsDigestDeterministic) {
  EXPECT_EQ(run_gang_digest(7), run_gang_digest(7));
  EXPECT_EQ(run_gang_digest(11), run_gang_digest(11));
}

}  // namespace
}  // namespace osap::policy
