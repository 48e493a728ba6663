// Edge cases of the kernel's phase interpreter and signal machinery.
#include <gtest/gtest.h>

#include "os/kernel.hpp"
#include "sim/simulation.hpp"

namespace osap {
namespace {

OsConfig test_config() {
  OsConfig cfg;
  cfg.ram = 1024 * MiB;
  cfg.os_reserved = 0;
  cfg.swap_size = 4 * GiB;
  cfg.low_watermark = 0.01;
  cfg.high_watermark = 0.02;
  cfg.lru_approx_error = 0;
  cfg.vm_chunk = 32 * MiB;
  cfg.io_chunk = 64 * MiB;
  cfg.disk_bandwidth = 100.0 * static_cast<double>(MiB);
  cfg.disk_seek = 0;
  cfg.cores = 2;
  cfg.touch_cpu_per_byte = 1.0 / (1.0 * static_cast<double>(GiB));
  cfg.sigtstp_handler_delay = ms(20);
  return cfg;
}

struct Fixture {
  Fixture() : kernel(sim, test_config(), "n0") {}
  Simulation sim;
  Kernel kernel;
};

TEST(KernelEdge, EmptyProgramExitsImmediately) {
  Fixture f;
  SimTime exit_at = -1;
  f.kernel.spawn(Program{"noop", {}}, {.on_exit = [&](ExitInfo) { exit_at = f.sim.now(); }});
  f.sim.run();
  EXPECT_DOUBLE_EQ(exit_at, 0.0);
}

TEST(KernelEdge, ZeroByteAllocAndRead) {
  Fixture f;
  SimTime exit_at = -1;
  f.kernel.spawn(ProgramBuilder("z").alloc("heap", 0).read_parse(0, 1.0).build(),
                 {.on_exit = [&](ExitInfo) { exit_at = f.sim.now(); }});
  f.sim.run();
  EXPECT_GE(exit_at, 0.0);
  EXPECT_EQ(f.kernel.process_count(), 0u);
}

TEST(KernelEdge, SuspendDuringDiskReadPausesTheStream) {
  Fixture f;
  SimTime exit_at = -1;
  // Disk-bound read (no parse cost): 512 MiB at 100 MiB/s ~ 5.1 s.
  const Pid pid = f.kernel.spawn(
      ProgramBuilder("r").read_parse(512 * MiB, 1e-12).build(),
      {.on_exit = [&](ExitInfo) { exit_at = f.sim.now(); }});
  f.sim.at(2.0, [&] { f.kernel.signal(pid, Signal::Tstp); });
  f.sim.at(12.0, [&] { f.kernel.signal(pid, Signal::Cont); });
  f.sim.run();
  EXPECT_NEAR(exit_at, 15.1, 0.3);
}

TEST(KernelEdge, SuspendBetweenReadChunksDefersTheNextChunk) {
  Fixture f;
  // io_chunk = 64 MiB; suspend exactly when a chunk boundary lands.
  SimTime exit_at = -1;
  const Pid pid = f.kernel.spawn(
      ProgramBuilder("r").read_parse(256 * MiB, 1e-12).build(),
      {.on_exit = [&](ExitInfo) { exit_at = f.sim.now(); }});
  f.sim.at(0.64, [&] { f.kernel.signal(pid, Signal::Tstp); });  // ~chunk 1 done
  f.sim.at(5.0, [&] { f.kernel.signal(pid, Signal::Cont); });
  f.sim.run();
  EXPECT_GT(exit_at, 6.5);
  EXPECT_LT(exit_at, 8.5);
}

TEST(KernelEdge, KillWhileWaitingForVmmGrant) {
  OsConfig cfg = test_config();
  Fixture f;
  // A stopped hog fills memory; the victim's allocation stalls on swap
  // I/O; killing it mid-grant must not corrupt accounting.
  const Pid hog = f.kernel.spawn(
      ProgramBuilder("hog").alloc("state", 800 * MiB).sleep(100.0).build());
  f.sim.run_until(2.0);
  f.kernel.signal(hog, Signal::Tstp);
  f.sim.run_until(3.0);
  ExitInfo info;
  const Pid victim =
      f.kernel.spawn(ProgramBuilder("victim").alloc("heap", 600 * MiB).build(),
                     {.on_exit = [&](ExitInfo e) { info = e; }});
  f.sim.run_until(3.6);  // mid swap-out
  f.kernel.signal(victim, Signal::Kill);
  f.kernel.signal(hog, Signal::Kill);
  f.sim.run();
  EXPECT_TRUE(info.killed());
  EXPECT_EQ(f.kernel.process_count(), 0u);
  EXPECT_EQ(f.kernel.vmm().free_ram() + f.kernel.vmm().fs_cache(), cfg.usable_ram());
  EXPECT_EQ(f.kernel.vmm().swap_used(), 0u);
}

TEST(KernelEdge, TouchOnWriteDirtiesAndDropsSwapSlots) {
  Fixture f;
  SimTime exit_at = -1;
  const Pid sleeper = f.kernel.spawn(ProgramBuilder("s")
                                         .alloc("state", 600 * MiB)
                                         .sleep(5.0)
                                         .touch("state", /*write=*/true)
                                         .build(),
                                     {.on_exit = [&](ExitInfo) { exit_at = f.sim.now(); }});
  f.sim.at(1.0, [&] { f.kernel.signal(sleeper, Signal::Tstp); });
  f.sim.at(2.0, [&] {
    f.kernel.spawn(ProgramBuilder("hog").alloc("heap", 700 * MiB).build());
  });
  f.sim.at(30.0, [&] { f.kernel.signal(sleeper, Signal::Cont); });
  f.sim.run();
  EXPECT_GT(exit_at, 30.0);
  // Rewriting on page-in dropped the swap slots.
  EXPECT_EQ(f.kernel.vmm().swap_used(), 0u);
}

TEST(KernelEdge, TstpOnZombieAndDoubleKillAreSafe) {
  Fixture f;
  const Pid pid = f.kernel.spawn(ProgramBuilder("t").compute(1.0).build());
  f.sim.run();
  f.kernel.signal(pid, Signal::Tstp);
  f.kernel.signal(pid, Signal::Kill);
  f.kernel.signal(pid, Signal::Kill);
  SUCCEED();
}

TEST(KernelEdge, ConcurrentHungryProcessesBothComplete) {
  Fixture f;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    // Appended, not `"p" + std::to_string(i)`: GCC 12 at -O3
    // reports a false -Wrestrict on literal + temporary (GCC bug 105329).
    std::string name = "p";
    name += std::to_string(i);
    f.kernel.spawn(ProgramBuilder(name)
                       .alloc("state", 500 * MiB)
                       .compute(2.0)
                       .touch("state")
                       .build(),
                   {.on_exit = [&](ExitInfo e) {
                     if (e.reason == ExitReason::Finished) ++done;
                   }});
  }
  f.sim.run();
  // 1.5 GiB of demand in 1 GiB of RAM: they page, they do not deadlock.
  EXPECT_EQ(done, 3);
  EXPECT_GT(f.kernel.vmm().swapped_out_total_all(), 100 * MiB);
}

TEST(KernelEdge, ProgressOfMissingPidIsZero) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.kernel.progress(Pid{1234}), 0.0);
}

}  // namespace
}  // namespace osap
