// Fault-injection tests for the invariant-audit subsystem: each auditor
// must convert a seeded corruption of its layer's state into a failing
// audit sweep with a diagnostic dump, and the watchdog must turn a
// zero-delay event livelock into a prompt failure instead of a hang.
#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hpp"
#include "hadoop/cluster.hpp"
#include "os/kernel.hpp"
#include "preempt/preemptor.hpp"
#include "sched/dummy.hpp"
#include "sched/hfsp.hpp"
#include "sim/simulation.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

OsConfig os_config() {
  OsConfig cfg;
  cfg.ram = 1024 * MiB;
  cfg.os_reserved = 0;
  cfg.swap_size = 4 * GiB;
  cfg.swappiness = 0;
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

/// Run `fn`, assert it throws SimError, and assert every `needle` appears
/// in the failure message (the violation text and the attached dump).
template <typename Fn>
void expect_audit_failure(Fn&& fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected the audit to throw SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing '" << needle << "' in:\n" << what;
    }
  }
}

struct FakeAuditor final : InvariantAuditor {
  std::string label;
  std::vector<std::string> complaints;
  explicit FakeAuditor(std::string l) : label(std::move(l)) {}
  [[nodiscard]] std::string audit_label() const override { return label; }
  void audit(std::vector<std::string>& violations) const override {
    for (const std::string& c : complaints) violations.push_back(c);
  }
  void dump(std::ostream& os) const override { os << "state of " << label << '\n'; }
};

TEST(Registry, RunPrefixesLabelsAndDumpHasSections) {
  AuditRegistry reg;
  FakeAuditor a("alpha");
  FakeAuditor b("beta");
  a.complaints.push_back("broken thing");
  reg.add(&a);
  reg.add(&b);
  EXPECT_EQ(reg.size(), 2u);
  std::vector<std::string> violations;
  reg.run(violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "[alpha] broken thing");
  const std::string dump = reg.dump_all();
  EXPECT_NE(dump.find("--- alpha ---"), std::string::npos);
  EXPECT_NE(dump.find("state of beta"), std::string::npos);
  reg.remove(&a);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, DoubleAddFails) {
  AuditRegistry reg;
  FakeAuditor a("alpha");
  reg.add(&a);
  EXPECT_THROW(reg.add(&a), SimError);
  EXPECT_EQ(reg.size(), 1u);
  reg.remove(&a);
  reg.add(&a);  // a removed auditor may register again
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, RemovingFromTheMiddleKeepsTheOthersInOrder) {
  AuditRegistry reg;
  FakeAuditor a("alpha");
  FakeAuditor b("beta");
  FakeAuditor c("gamma");
  for (FakeAuditor* f : {&a, &b, &c}) {
    f->complaints.push_back("broken");
    reg.add(f);
  }
  reg.remove(&b);
  reg.remove(&b);  // a second remove is a no-op
  EXPECT_EQ(reg.size(), 2u);
  std::vector<std::string> violations;
  reg.sweep(violations);
  EXPECT_EQ(violations, (std::vector<std::string>{"[alpha] broken", "[gamma] broken"}));
  const std::string dump = reg.dump_all();
  EXPECT_LT(dump.find("--- alpha ---"), dump.find("--- gamma ---"));
  EXPECT_EQ(dump.find("--- beta ---"), std::string::npos);
  // The retired row comes first, then the registered ones in order.
  std::vector<std::string> rows;
  for (const AuditRegistry::AuditorCost& cost : reg.costs()) {
    rows.push_back(cost.label + ":" + std::to_string(cost.swept));
  }
  EXPECT_EQ(rows, (std::vector<std::string>{"beta:0", "alpha:1", "gamma:1"}));
}

TEST(Watchdog, ZeroDelayLivelockFailsFastWithDefaults) {
  Simulation sim;
  // A pathological event that re-schedules itself at the current instant:
  // simulated time never advances and the queue never drains.
  auto spin = [&sim](auto self) -> void { sim.after(0, [self] { self(self); }); };
  sim.after(0, [spin] { spin(spin); });
  expect_audit_failure([&] { sim.run(); }, {"watchdog", "stalled"});
}

TEST(Watchdog, CreepingTimeLivelockFails) {
  // Time advances by a picosecond per event: the same-instant watchdog is
  // blind (every event moves the clock), but the min-advance window sees
  // that 1024 events bought less than the configured floor.
  Simulation sim;
  AuditConfig cfg;
  cfg.min_advance_window = 1024;
  cfg.min_advance_floor = 1e-6;
  sim.set_audit_config(cfg);
  auto creep = [&sim](auto self) -> void { sim.after(1e-12, [self] { self(self); }); };
  sim.after(0, [creep] { creep(creep); });
  expect_audit_failure([&] { sim.run(); }, {"watchdog", "crept"});
}

TEST(Watchdog, SlowButRealProgressPasses) {
  // Millisecond steps clear a microsecond floor easily; the min-advance
  // watchdog must stay quiet for any sim making real progress.
  Simulation sim;
  AuditConfig cfg;
  cfg.min_advance_window = 64;
  cfg.min_advance_floor = 1e-6;
  sim.set_audit_config(cfg);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.after(0.001 * i, [&fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 1000);
}

TEST(Watchdog, MinAdvanceDisabledByZeroWindow) {
  Simulation sim;
  AuditConfig cfg;
  cfg.min_advance_window = 0;  // opt out: creeping time is tolerated
  cfg.max_stalled_events = 1000000;
  sim.set_audit_config(cfg);
  int hops = 0;
  auto creep = [&sim, &hops](auto self) -> void {
    if (++hops < 5000) sim.after(1e-12, [self] { self(self); });
  };
  sim.after(0, [creep] { creep(creep); });
  sim.run();
  EXPECT_EQ(hops, 5000);
}

TEST(Watchdog, AdvancingTimeNeverTrips) {
  Simulation sim;
  AuditConfig cfg;
  cfg.max_stalled_events = 4;  // tight: any real stall would fire
  sim.set_audit_config(cfg);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.after(0.001 * i, [&fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 100);
}

TEST(VmmAudit, FrameLeakFiresWithDump) {
  Simulation sim;
  Kernel kernel(sim, os_config(), "node0");
  kernel.spawn(ProgramBuilder("app").alloc("heap", 256 * MiB, true).compute(100).build());
  sim.run_until(5.0);
  kernel.vmm().testing_corrupt_free_frames(-static_cast<Bytes>(1 * MiB));
  expect_audit_failure([&] { sim.audit_now(); },
                       {"frame conservation broken", "--- node0.vmm ---"});
}

TEST(VmmAudit, CleanRunStaysSilent) {
  Simulation sim;
  Kernel kernel(sim, os_config(), "node0");
  kernel.spawn(ProgramBuilder("app").alloc("heap", 256 * MiB, true).compute(3).build());
  sim.run();
  sim.audit_now();  // must not throw
}

TEST(KernelAudit, StopFlagDisagreementFires) {
  Simulation sim;
  Kernel kernel(sim, os_config(), "node0");
  const Pid pid = kernel.spawn(ProgramBuilder("app").compute(100).build());
  sim.run_until(1.0);
  kernel.testing_corrupt_stop_state(pid);
  expect_audit_failure([&] { sim.audit_now(); }, {"VMM stopped flag", "--- node0 ---"});
}

TEST(JobTrackerAudit, TrackerBindingCorruptionFires) {
  Cluster cluster(paper_cluster());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler* ds = sched.get();
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("tl", 0, light_map_task()));
  cluster.sim().run_until(10.0);
  cluster.job_tracker().testing_corrupt_task_binding(ds->task_of("tl", 0));
  expect_audit_failure([&] { cluster.sim().audit_now(); },
                       {"bound to no tracker", "--- jobtracker ---"});
}

TEST(ProtocolAudit, AckWithoutRequestFires) {
  // Every JobTracker owns its protocol auditor: no scheduler or
  // Preemptor is needed for the check to run.
  Cluster cluster(paper_cluster());
  // A SUSPENDED acknowledgement with no MUST_SUSPEND round trip before it
  // breaks the §III-B ordering.
  cluster.job_tracker().testing_emit_event(ClusterEventType::TaskSuspended, JobId{},
                                           TaskId{7}, NodeId{});
  expect_audit_failure([&] { cluster.sim().audit_now(); },
                       {"[preempt-protocol]", "task-suspended", "while in phase none"});
}

TEST(ProtocolAudit, ViolationIsReportedOnceWhateverDrivesPreemption) {
  // The scheduler's policy engine and a second engine (as a revocation
  // manager is) each hold a Preemptor; the violation still appears once.
  Cluster cluster(paper_cluster());
  cluster.set_scheduler(std::make_unique<HfspScheduler>());
  Preemptor second_engine(cluster.job_tracker());
  cluster.job_tracker().testing_emit_event(ClusterEventType::TaskSuspended, JobId{},
                                           TaskId{7}, NodeId{});
  try {
    cluster.sim().audit_now();
    FAIL() << "expected the audit to throw SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    const std::string needle = "[preempt-protocol] task_7: task-suspended";
    const std::size_t first = what.find(needle);
    ASSERT_NE(first, std::string::npos) << what;
    EXPECT_EQ(what.find(needle, first + 1), std::string::npos) << what;
  }
}

TEST(ProtocolAudit, LegalRoundTripStaysSilent) {
  Cluster cluster(paper_cluster());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler* ds = sched.get();
  cluster.set_scheduler(std::move(sched));
  cluster.submit_at(0.05, single_task_job("tl", 0, light_map_task()));
  ds->at_progress("tl", 0, 0.2, [ds] { ds->preempt("tl", 0, PreemptPrimitive::Suspend); });
  cluster.sim().run_until(40.0);
  ds->restore("tl", 0, PreemptPrimitive::Suspend);
  cluster.run();
  cluster.sim().audit_now();  // the full suspend/resume cycle is legal
  EXPECT_EQ(cluster.job_tracker().job(ds->job_of("tl")).state, JobState::Succeeded);
}

TEST(AuditSweep, FiresWithinOneStrideDuringRun) {
  Simulation sim;
  Kernel kernel(sim, os_config(), "node0");
  kernel.vmm().testing_corrupt_free_frames(static_cast<Bytes>(1 * MiB));
  // Plenty of unrelated traffic: the periodic sweep must notice anyway.
  for (int i = 0; i < 200; ++i) sim.after(0.01 * i, [] {});
  expect_audit_failure([&] { sim.run(); }, {"frame conservation broken"});
}

TEST(AuditSweep, DisabledConfigSkipsSweeps) {
  Simulation sim;
  AuditConfig cfg;
  cfg.enabled = false;
  sim.set_audit_config(cfg);
  Kernel kernel(sim, os_config(), "node0");
  kernel.vmm().testing_corrupt_free_frames(static_cast<Bytes>(1 * MiB));
  for (int i = 0; i < 200; ++i) sim.after(0.01 * i, [] {});
  sim.run();  // corruption present, audits off: must complete untouched
}

}  // namespace
}  // namespace osap
