// Property tests: VMM frame/slot accounting must balance under arbitrary
// interleavings of commit / page-in / stop / release operations.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "os/vmm.hpp"
#include "sim/simulation.hpp"

namespace osap {
namespace {

struct Fixture {
  explicit Fixture(OsConfig c) : cfg(c), disk(sim, c.disk_bandwidth, 0, "d"), vmm(sim, disk, c) {}
  OsConfig cfg;
  Simulation sim;
  Disk disk;
  Vmm vmm;
};

OsConfig small_config() {
  OsConfig cfg;
  cfg.ram = 1024 * MiB;
  cfg.os_reserved = 0;
  cfg.swap_size = 4 * GiB;
  cfg.low_watermark = 0.01;
  cfg.high_watermark = 0.02;
  cfg.lru_approx_error = 0.1;
  cfg.vm_chunk = 32 * MiB;
  cfg.disk_bandwidth = 200.0 * static_cast<double>(MiB);
  return cfg;
}

/// After the event queue drains, every usable frame is either free, in
/// the fs cache, or resident in some process.
void expect_conservation(Fixture& f, const std::vector<Pid>& pids) {
  Bytes resident = 0, swapped = 0;
  for (Pid pid : pids) {
    resident += f.vmm.resident(pid);
    swapped += f.vmm.swapped(pid);
  }
  EXPECT_EQ(f.vmm.free_ram() + f.vmm.fs_cache() + resident, f.cfg.usable_ram());
  EXPECT_GE(f.vmm.swap_used(), swapped);  // clean copies may hold extra slots
  EXPECT_LE(f.vmm.swap_used(), f.cfg.swap_size);
}

class VmmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmmFuzz, RandomOperationSequencesConserveMemory) {
  Fixture f(small_config());
  Rng rng(GetParam());
  constexpr int kProcs = 4;
  std::vector<Pid> pids;
  std::vector<RegionId> regions;
  std::vector<bool> stopped(kProcs, false);
  for (int i = 0; i < kProcs; ++i) {
    const Pid pid{static_cast<std::uint64_t>(i)};
    pids.push_back(pid);
    f.vmm.register_process(pid);
    // Appended, not `"r" + std::to_string(i)`: GCC 12 at -O3
    // reports a false -Wrestrict on literal + temporary (GCC bug 105329).
    std::string rname = "r";
    rname += std::to_string(i);
    regions.push_back(f.vmm.create_region(pid, rname));
  }
  f.vmm.set_oom_handler([&] {
    // Kill the biggest process, like the kernel would.
    Pid victim = pids[0];
    Bytes best = 0;
    for (Pid pid : pids) {
      if (f.vmm.resident(pid) >= best) {
        best = f.vmm.resident(pid);
        victim = pid;
      }
    }
    f.vmm.release_process(victim);
  });

  int completions = 0;
  for (int step = 0; step < 60; ++step) {
    const auto which = rng.uniform_int(0, kProcs - 1);
    const RegionId region = regions[which];
    const Pid pid = pids[which];
    switch (rng.uniform_int(0, 5)) {
      case 0:
      case 1:
        f.vmm.commit(region, rng.uniform_int(1, 8) * 32 * MiB, [&] { ++completions; });
        break;
      case 2:
        f.vmm.page_in(region, rng.uniform() < 0.5, [&] { ++completions; });
        break;
      case 3:
        stopped[which] = !stopped[which];
        f.vmm.set_stopped(pid, stopped[which]);
        break;
      case 4:
        f.vmm.release(region, rng.uniform_int(1, 4) * 32 * MiB);
        break;
      case 5:
        f.vmm.fs_cache_insert(rng.uniform_int(1, 4) * 32 * MiB);
        break;
    }
    if (rng.uniform() < 0.3) f.sim.run();  // quiesce mid-sequence too
  }
  f.sim.run();
  expect_conservation(f, pids);

  // Releasing everything returns every frame and every swap slot.
  for (Pid pid : pids) f.vmm.release_process(pid);
  f.sim.run();
  EXPECT_EQ(f.vmm.free_ram() + f.vmm.fs_cache(), f.cfg.usable_ram());
  EXPECT_EQ(f.vmm.swap_used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmmFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class VmmPressureSweep : public ::testing::TestWithParam<int> {};

TEST_P(VmmPressureSweep, SwapNeverExceedsDemandPlusOvershoot) {
  // Commit `k` 300 MiB regions into 1 GiB of RAM; cumulative swap-out must
  // stay within the theoretical demand plus reclaim overshoot slack.
  const int k = GetParam();
  Fixture f(small_config());
  std::vector<Pid> pids;
  for (int i = 0; i < k; ++i) {
    const Pid pid{static_cast<std::uint64_t>(i)};
    pids.push_back(pid);
    f.vmm.register_process(pid);
    const RegionId r = f.vmm.create_region(pid, "state");
    f.vmm.commit(r, 300 * MiB, [] {});
    f.sim.run();
    f.vmm.set_stopped(pid, true);
  }
  f.sim.run();
  expect_conservation(f, pids);
  const Bytes demand = static_cast<Bytes>(k) * 300 * MiB;
  const Bytes deficit = sat_sub(demand, f.cfg.usable_ram());
  // Overshoot slack: high watermark per reclaim wave plus LRU error.
  const Bytes slack = f.cfg.high_watermark_bytes() * 4 + demand / 4;
  EXPECT_LE(f.vmm.swapped_out_total_all(), deficit + slack);
  EXPECT_GE(f.vmm.swapped_out_total_all(), deficit > 0 ? deficit / 2 : 0);
}

INSTANTIATE_TEST_SUITE_P(Load, VmmPressureSweep, ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace osap
