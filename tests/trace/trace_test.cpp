// The observability subsystem (src/trace): tracer/counter/profiler units,
// the golden Chrome-trace-JSON file for a two-job preemption run, the
// paging-counter conservation law, dirty-flag audit sweep costs, and the
// one-hop maps-done push.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sched/dummy.hpp"
#include "trace/context.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

using trace::Tracer;

// --- tracer units ---------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;  // disabled by default
  const trace::TrackId trk = tracer.track("node0", "kernel");
  tracer.begin(trk, "phase");  // osap-lint: allow(SID-1) throwaway span name; asserts the disabled path
  tracer.end(trk);
  tracer.instant(trk, "spawn", {{"pid", 1}});
  tracer.async_begin(trk, "stopped", 7);
  tracer.async_end(trk, "stopped", 7);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, TrackRegistrationDeduplicatesWhileDisabled) {
  Tracer tracer;
  const trace::TrackId a = tracer.track("node0", "vmm");
  const trace::TrackId b = tracer.track("node0", "vmm");
  const trace::TrackId c = tracer.track("node0", "kernel");
  const trace::TrackId d = tracer.track("node1", "vmm");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(c, d);
}

TEST(Tracer, TimestampsQuantizeToIntegerMicroseconds) {
  Tracer tracer;
  tracer.set_enabled(true);
  SimTime now = 1.5;
  tracer.set_clock([&now] { return now; });
  const trace::TrackId trk = tracer.track("node0", "kernel");
  tracer.instant(trk, "tick");  // osap-lint: allow(SID-1) throwaway name; exercises clock scaling only
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos) << json;
  EXPECT_EQ(json.find("1.5"), std::string::npos) << "raw double leaked into " << json;
}

TEST(Tracer, InstantsCarryThreadScope) {
  Tracer tracer;
  tracer.set_enabled(true);
  const trace::TrackId trk = tracer.track("cluster", "preemptor");
  tracer.instant(trk, "preempt", {{"primitive", "susp"}});
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"primitive\":\"susp\""), std::string::npos) << json;
}

TEST(Tracer, MetadataNamesEveryProcessAndThread) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.track("node0", "kernel");
  tracer.track("node0", "vmm");
  tracer.track("cluster", "jobtracker");
  const std::string json = tracer.to_json();
  // Metadata precedes all real events and labels each lane.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"node0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"vmm\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"jobtracker\""), std::string::npos) << json;
}

TEST(Tracer, AsyncSpansMatchByNameAndId) {
  Tracer tracer;
  tracer.set_enabled(true);
  SimTime now = 1.0;
  tracer.set_clock([&now] { return now; });
  const trace::TrackId trk = tracer.track("node0", "kernel");
  tracer.async_begin(trk, "stopped", 42);
  now = 4.5;
  tracer.async_end(trk, "stopped", 42);
  EXPECT_DOUBLE_EQ(tracer.async_duration("stopped", 42), 3.5);
  EXPECT_LT(tracer.async_duration("stopped", 43), 0);  // unmatched
  EXPECT_LT(tracer.async_duration("suspend", 42), 0);
}

TEST(Tracer, EscapesJsonSpecialCharacters) {
  Tracer tracer;
  tracer.set_enabled(true);
  const trace::TrackId trk = tracer.track("node0", "kernel");
  tracer.instant(trk, "spawn", {{"name", std::string("a\"b\\c\nd")}});
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos) << json;
}

// --- counters & profiler --------------------------------------------------

TEST(Counters, FindOrCreateAndRead) {
  trace::CounterRegistry registry;
  registry.counter("node0.vmm.paged_out_bytes").add(4096);
  registry.counter("node0.vmm.paged_out_bytes").add(4096);
  registry.gauge("cluster.jobs_running").set(2);
  EXPECT_EQ(registry.value("node0.vmm.paged_out_bytes"), 8192u);
  // osap-lint: allow(SID-1) deliberately unregistered: asserts untouched counters read zero
  EXPECT_EQ(registry.value("never.touched"), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("cluster.jobs_running").value(), 2);
}

TEST(Counters, JsonIsSortedByName) {
  trace::CounterRegistry registry;
  registry.counter("zeta").add(1);  // osap-lint: allow(SID-1) throwaway name; asserts JSON sort order
  registry.counter("alpha").add(2);  // osap-lint: allow(SID-1) throwaway name; asserts JSON sort order
  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  const auto alpha = json.find("\"alpha\":2");
  const auto zeta = json.find("\"zeta\":1");
  ASSERT_NE(alpha, std::string::npos) << json;
  ASSERT_NE(zeta, std::string::npos) << json;
  EXPECT_LT(alpha, zeta);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{}"), std::string::npos) << json;
}

TEST(Profiler, AccumulatesCallsAndWork) {
  trace::HotPathProfiler profiler;
  profiler.add(trace::HotPath::EventDispatch, 3);
  profiler.add(trace::HotPath::EventDispatch, 5);
  profiler.add(trace::HotPath::VmmReclaim);
  const auto dispatch = profiler.stats(trace::HotPath::EventDispatch);
  EXPECT_EQ(dispatch.calls, 2u);
  EXPECT_EQ(dispatch.work, 8u);
  EXPECT_EQ(profiler.stats(trace::HotPath::VmmReclaim).calls, 1u);
  std::ostringstream os;
  profiler.write_json(os);
  EXPECT_NE(os.str().find("\"EventDispatch\":{\"calls\":2,\"work\":8}"), std::string::npos)
      << os.str();
}

// --- integration ----------------------------------------------------------

TaskSpec reduce_task(Bytes shuffle, Bytes state = 0) {
  TaskSpec spec;
  spec.type = TaskType::Reduce;
  spec.shuffle_bytes = shuffle;
  spec.sort_cpu_seconds = 5.0;
  spec.input_bytes = 0;
  spec.output_bytes = shuffle / 2;
  spec.state_memory = state;
  spec.framework_memory = 160 * MiB;
  spec.parse_cpu_per_byte = 1.0 / (6.7 * static_cast<double>(MiB));
  return spec;
}

struct Rig {
  explicit Rig(ClusterConfig cfg) : cluster(cfg) {
    auto sched = std::make_unique<DummyScheduler>(cluster);
    ds = sched.get();
    cluster.set_scheduler(std::move(sched));
  }
  Cluster cluster;
  DummyScheduler* ds = nullptr;
};

/// The paper's two-job suspend scenario, small enough for a golden file:
/// tl runs, th arrives at 50% and displaces it via SIGTSTP, tl resumes
/// when th completes.
std::string run_two_job_preemption_trace() {
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Rig rig(cfg);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, light_map_task(64 * MiB)));
  rig.ds->at_progress("tl", 0, 0.5, [&rig] {
    rig.cluster.submit(single_task_job("th", 10, light_map_task(32 * MiB)));
    rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  rig.ds->on_complete("th", [&rig] { rig.ds->restore("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  EXPECT_TRUE(rig.cluster.job_tracker().all_jobs_done());
  return rig.cluster.sim().trace().tracer().to_json();
}

// The golden-file test: byte-exact Chrome trace JSON for the preemption
// run, stable across GCC and Clang (integer-µs timestamps, no doubles in
// args). Regenerate deliberately with OSAP_UPDATE_GOLDEN=1 after an
// instrumentation change, and eyeball the diff — it IS the trace schema.
TEST(TraceGolden, TwoJobPreemptionMatchesGoldenFile) {
  const std::string got = run_two_job_preemption_trace();
  const std::string path = std::string(OSAP_TRACE_GOLDEN_DIR) + "/two_job_preemption.json";
  if (std::getenv("OSAP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with OSAP_UPDATE_GOLDEN=1 to create it";
  std::ostringstream want;
  want << in.rdbuf();
  // Compare lengths first for a readable failure, then bytes.
  ASSERT_EQ(got.size(), want.str().size())
      << "trace JSON size changed; regenerate the golden file if intended";
  EXPECT_EQ(got, want.str());
}

TEST(TraceIntegration, TraceContainsSuspendProtocolSpans) {
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Rig rig(cfg);
  rig.cluster.submit_at(0.05, single_task_job("tl", 0, light_map_task(64 * MiB)));
  rig.ds->at_progress("tl", 0, 0.5, [&rig] {
    rig.cluster.submit(single_task_job("th", 10, light_map_task(32 * MiB)));
    rig.ds->preempt("tl", 0, PreemptPrimitive::Suspend);
  });
  rig.ds->on_complete("th", [&rig] { rig.ds->restore("tl", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const Tracer& tracer = rig.cluster.sim().trace().tracer();
  const std::string json = tracer.to_json();
  // MUST_SUSPEND -> SUSPENDED at the JobTracker, the SIGTSTP handler
  // window and stop at the kernel, and the preemptor's decisions.
  EXPECT_NE(json.find("\"name\":\"suspend\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"resume\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sigtstp_window\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stopped\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"preempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"restore\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"heartbeat\""), std::string::npos);
  // The suspend span resolved (no dangling b without e).
  const TaskId tl = rig.ds->task_of("tl", 0);
  EXPECT_GT(tracer.async_duration("suspend", tl.value()), 0.0);
  EXPECT_GT(tracer.async_duration("resume", tl.value()), 0.0);
}

TEST(TraceIntegration, PagingCountersObeyConservation) {
  // Same pressure scenario as Reduce.StatefulReducerSwapsUnderPressure:
  // a stateful reducer displaced by a hungry mapper must page. Once every
  // task process has exited (all regions released), the VMM books balance
  // exactly: paged_out == paged_in + discarded.
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Rig rig(cfg);
  JobSpec red;
  red.name = "red";
  red.tasks.push_back(reduce_task(512 * MiB, /*state=*/2 * GiB));
  rig.cluster.submit_at(0.05, red);
  rig.ds->at_progress("red", 0, 0.5, [&rig] {
    rig.cluster.submit(single_task_job("high", 10, hungry_map_task(2 * GiB)));
    rig.ds->preempt("red", 0, PreemptPrimitive::Suspend);
  });
  rig.ds->on_complete("high",
                      [&rig] { rig.ds->restore("red", 0, PreemptPrimitive::Suspend); });
  rig.cluster.run();
  const trace::CounterRegistry& counters = rig.cluster.sim().trace().counters();
  const std::uint64_t out = counters.value("node0.vmm.paged_out_bytes");
  const std::uint64_t in = counters.value("node0.vmm.paged_in_bytes");
  const std::uint64_t discarded = counters.value("node0.vmm.swap_discarded_bytes");
  EXPECT_GT(out, 0u) << "pressure scenario did not page at all";
  EXPECT_EQ(out, in + discarded);
  // Swap traffic actually hit the simulated spindle.
  EXPECT_GT(counters.value("node0.vmm.swap_out_io_bytes"), 0u);
}

TEST(TraceIntegration, HeartbeatCountersBalance) {
  ClusterConfig cfg = paper_cluster();
  Rig rig(cfg);
  rig.cluster.submit_at(0.05, single_task_job("m", 0, light_map_task(64 * MiB)));
  rig.cluster.run();
  const trace::CounterRegistry& counters = rig.cluster.sim().trace().counters();
  const std::uint64_t sent = counters.value("node0.tasktracker.heartbeats_sent");
  EXPECT_GT(sent, 0u);
  // Every heartbeat the JobTracker saw was sent by the one tracker; sends
  // still in flight when the run stops keep the counts from matching
  // exactly, never the other way around.
  EXPECT_LE(counters.value("jobtracker.heartbeats_handled"), sent);
  EXPECT_GE(counters.value("jobtracker.heartbeats_handled"), sent - 1);
  // The launch action for the one task was sent and applied.
  EXPECT_GE(counters.value("scheduler.assignments"), 1u);
  EXPECT_GE(counters.value("node0.tasktracker.actions_applied"), 1u);
}

TEST(TraceIntegration, ObservabilityJsonCarriesAllSections) {
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Rig rig(cfg);
  rig.cluster.submit_at(0.05, single_task_job("m", 0, light_map_task(32 * MiB)));
  rig.cluster.run();
  std::ostringstream os;
  rig.cluster.sim().write_observability_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"events_processed\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_digest\":\"0x"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hot_paths\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"audit_sweeps\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"EventDispatch\""), std::string::npos) << json;
}

TEST(TraceIntegration, DirtyFlaggingSkipsCleanAuditSweeps) {
  // A reduce parked on the shuffle barrier leaves its node's kernel and
  // VMM untouched for long stretches; the dirty flag lets the periodic
  // sweep skip them there while still auditing every mutation window.
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  // The fluid model makes event streams sparse (this whole run is < 100
  // events), so sweep every event to observe the skip/sweep split.
  cfg.audit.stride = 1;
  Rig rig(cfg);
  JobSpec job;
  job.name = "mr";
  TaskSpec map = light_map_task(128 * MiB);
  map.preferred_node = rig.cluster.node(0);
  TaskSpec red = reduce_task(16 * MiB);
  red.preferred_node = rig.cluster.node(1);
  job.tasks.push_back(map);
  job.tasks.push_back(red);
  rig.cluster.submit_at(0.05, job);
  rig.cluster.run();
  const AuditRegistry& audits = rig.cluster.sim().audits();
  EXPECT_GT(audits.sweeps(), 0u);
  bool saw_vmm = false;
  bool saw_kernel = false;
  for (const AuditRegistry::AuditorCost& cost : audits.costs()) {
    if (cost.label == "node1.vmm") {
      saw_vmm = true;
      EXPECT_GT(cost.swept, 0u) << "vmm was never audited";
      EXPECT_GT(cost.skipped, 0u) << "dirty-flagging never skipped an idle vmm sweep";
    }
    if (cost.label == "node1") {
      saw_kernel = true;
      EXPECT_GT(cost.swept, 0u) << "kernel was never audited";
      EXPECT_GT(cost.skipped, 0u) << "dirty-flagging never skipped an idle kernel sweep";
    }
  }
  EXPECT_TRUE(saw_vmm);
  EXPECT_TRUE(saw_kernel);
}

/// Shuffle-barrier latency for a reduce on a different node than the last
/// map, measured by the maps_done_delivery span.
double maps_done_latency() {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = 2;
  cfg.trace.enabled = true;
  Rig rig(cfg);
  JobSpec job;
  job.name = "mr";
  TaskSpec map = light_map_task(128 * MiB);
  map.preferred_node = rig.cluster.node(0);
  TaskSpec red = reduce_task(16 * MiB);
  red.preferred_node = rig.cluster.node(1);
  job.tasks.push_back(map);
  job.tasks.push_back(red);
  rig.cluster.submit_at(0.05, job);
  rig.cluster.run();
  EXPECT_TRUE(rig.cluster.job_tracker().all_jobs_done());
  const TaskId reduce_id = rig.ds->task_of("mr", 1);
  return rig.cluster.sim().trace().tracer().async_duration("maps_done_delivery",
                                                           reduce_id.value());
}

TEST(TraceIntegration, OobMapsDoneCutsShuffleBarrierLatency) {
  // The span resolved (begin at last map success, end at barrier release
  // on the reduce's node) after one network hop, not a periodic
  // heartbeat round trip.
  const double pushed = maps_done_latency();
  ASSERT_GT(pushed, 0.0);
  EXPECT_LT(pushed, 0.5);
}

}  // namespace
}  // namespace osap
