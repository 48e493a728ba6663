// osap — command-line front end for the simulator.
//
// The paper's two-job grid (Figs. 2-4, the Natjam comparison) runs
// through `osapd run configs/<fig>.matrix`, one cell through `osapd
// instrument` (docs/OSAPD.md); this CLI renders single runs.
//
//   osap gantt    [--primitive susp] [--r 0.5] [--tl-state ...] [--th-state ...]
//       One run, rendered as a Figure-1-style schedule.
//
//   osap config <file> [--nodes 1] [--seed 1]
//       Run a dummy-scheduler configuration file (§III-B) and report
//       every job's outcome.
//
//   osap trace    [--scheduler hfsp] [--primitive susp] [--jobs 12]
//                 [--nodes 4] [--seed 7]
//       A SWIM-like trace under the chosen scheduler. At the defaults
//       this is the trace cell `osapd instrument "workload=trace"` runs,
//       with the same event-trace digest.
//
// A primitive P is any spelling in kPrimitiveSpellings
// (src/preempt/primitive.hpp), a scheduler any name in kSchedulerNames
// (src/core/run.hpp); usage() prints both lists. Numeric flags
// read exactly, as descriptor axes do: `--jobs 12.9` and `--r 0.5x` are
// errors, and a 20-digit `--seed` is not rounded.
//
// `gantt`, `config` and `trace` also accept `--digest`: print the
// simulation's event-trace FNV digest after the run. Two invocations with
// identical flags must print identical digests (see docs/LINT.md). They
// also accept `--trace=<file>` (write a Chrome trace-event JSON, loadable
// in Perfetto) and `--counters=<file>` (write the observability JSON:
// counters, hot-path profile, audit sweep costs); see docs/OBSERVABILITY.md.
// `--faults=<file>` injects a scripted failure schedule (node crashes,
// tracker hangs, heartbeat drops, message delays, checkpoint losses) into
// the run; see docs/FAULTS.md for the plan syntax.
// `gantt`, `config` and `trace` also accept `--speculation` (turn on
// speculative backup attempts; see docs/SPECULATION.md) with optional
// `--spec-slowness`, `--spec-cap` and `--spec-min-runtime` tuning knobs.
//
// Flags take either `--key value` or `--key=value` form (tools/cli_args.hpp).
// Unknown flags are an error, never silently ignored.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "cli_args.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/run.hpp"
#include "fault/injector.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "metrics/timeline.hpp"
#include "workload/dummy_config.hpp"
#include "workload/swim.hpp"
#include "workload/trace_file.hpp"
#include "workload/two_job.hpp"

namespace osap {
namespace {

using cli::Args;

/// Wire `--trace=` / `--counters=` output destinations into the cluster
/// config. Cluster::run() writes the files when the paths are non-empty.
void apply_trace_flags(const Args& args, ClusterConfig& cfg) {
  cfg.trace.trace_file = args.get("trace", "");
  cfg.trace.counters_file = args.get("counters", "");
}

/// Wire `--speculation` (plus the optional `--spec-slowness`, `--spec-cap`
/// and `--spec-min-runtime` tuning knobs) into the Hadoop config.
/// Speculative execution is opt-in: see docs/SPECULATION.md.
void apply_speculation_flags(const Args& args, ClusterConfig& cfg) {
  if (args.has("speculation")) cfg.hadoop.speculative_execution = true;
  cfg.hadoop.speculative_slowness =
      args.num("spec-slowness", cfg.hadoop.speculative_slowness, parse_real);
  cfg.hadoop.speculative_cap = args.num("spec-cap", cfg.hadoop.speculative_cap, parse_count);
  cfg.hadoop.speculative_min_runtime =
      args.num("spec-min-runtime", cfg.hadoop.speculative_min_runtime, parse_real);
}

/// Build the injector for `--faults=<file>`, or nullptr without the flag.
/// The returned injector must outlive Cluster::run().
std::unique_ptr<fault::FaultInjector> maybe_inject_faults(const Args& args, Cluster& cluster) {
  const std::string path = args.get("faults", "");
  if (path.empty()) return nullptr;
  std::ifstream in(path);
  OSAP_CHECK_MSG(in, "cannot open fault plan " << path);
  return std::make_unique<fault::FaultInjector>(cluster, fault::parse_fault_plan(in));
}

void maybe_print_digest(const Args& args, const Cluster& cluster) {
  if (!args.has("digest")) return;
  std::printf("trace-digest: %016llx\n",
              static_cast<unsigned long long>(cluster.trace_digest()));
}

TwoJobParams params_from(const Args& args) {
  TwoJobParams params;
  params.primitive = parse_primitive(args.get("primitive", "susp"));
  params.progress_at_launch = args.num("r", 0.5, parse_real);
  params.tl_state = parse_size(args.get("tl-state", "0"));
  params.th_state = parse_size(args.get("th-state", "0"));
  params.seed = args.num<std::uint64_t>("seed", 42, parse_seed);
  return params;
}

int cmd_gantt(const Args& args) {
  TwoJobParams params = params_from(args);
  ClusterConfig cfg = params.cluster;
  cfg.seed = params.seed;
  apply_trace_flags(args, cfg);
  apply_speculation_flags(args, cfg);
  Cluster cluster(cfg);
  TimelineRecorder recorder(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  TaskSpec tl = params.tl_state > 0 ? hungry_map_task(params.tl_state) : light_map_task();
  TaskSpec th = params.th_state > 0 ? hungry_map_task(params.th_state) : light_map_task();
  cluster.submit_at(0.05, single_task_job("tl", 0, tl));
  const PreemptPrimitive primitive = params.primitive;
  ds.at_progress("tl", 0, params.progress_at_launch, [&cluster, &ds, th, primitive] {
    cluster.submit(single_task_job("th", 10, th));
    ds.preempt("tl", 0, primitive);
  });
  ds.on_complete("th", [&ds, primitive] { ds.restore("tl", 0, primitive); });
  const auto faults = maybe_inject_faults(args, cluster);
  cluster.run();
  std::printf("%s", recorder.render_gantt(args.num("cell", 3.0, parse_real)).c_str());
  maybe_print_digest(args, cluster);
  return 0;
}

int cmd_config(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: osap config <file>\n");
    return 1;
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.positional[0].c_str());
    return 1;
  }
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = args.num("nodes", cfg.num_nodes, parse_count);
  cfg.seed = args.num("seed", cfg.seed, parse_seed);
  apply_trace_flags(args, cfg);
  apply_speculation_flags(args, cfg);
  Cluster cluster(cfg);
  TimelineRecorder recorder(cluster.job_tracker());
  auto sched = std::make_unique<DummyScheduler>(cluster);
  DummyScheduler& ds = *sched;
  cluster.set_scheduler(std::move(sched));
  load_dummy_config(in, ds, cluster);
  const auto faults = maybe_inject_faults(args, cluster);
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  Table table({"job", "state", "submitted (s)", "sojourn (s)"});
  for (JobId id : jt.jobs_in_order()) {
    const Job& job = jt.job(id);
    const char* state = job.state == JobState::Succeeded   ? "succeeded"
                        : job.state == JobState::Failed    ? "failed"
                                                           : "incomplete";
    table.row({job.spec.name, state,
               Table::num(job.submitted_at, 2), Table::num(job.sojourn())});
  }
  table.print();
  std::printf("\n%s", recorder.render_gantt(3.0).c_str());
  maybe_print_digest(args, cluster);
  return 0;
}

int cmd_trace(const Args& args) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = args.num("nodes", 4, parse_count);
  cfg.seed = args.num<std::uint64_t>("seed", 7, parse_seed);
  apply_trace_flags(args, cfg);
  apply_speculation_flags(args, cfg);
  Cluster cluster(cfg);
  const PreemptPrimitive primitive = parse_primitive(args.get("primitive", "susp"));
  const std::string which = args.get("scheduler", "hfsp");
  cluster.set_scheduler(core::make_scheduler(which, primitive));

  std::vector<SwimJob> trace;
  if (args.has("file")) {
    std::ifstream in(args.get("file", ""));
    if (!in) {
      std::fprintf(stderr, "cannot open trace file %s\n", args.get("file", "").c_str());
      return 1;
    }
    trace = load_trace_file(in);
  } else {
    SwimConfig swim;
    swim.jobs = args.num("jobs", 12, parse_count);
    Rng rng(cfg.seed);
    trace = generate_swim_trace(swim, rng);
  }
  for (SwimJob& job : trace) cluster.submit_at(job.arrival, std::move(job.spec));
  const auto faults = maybe_inject_faults(args, cluster);
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  Table table({"job", "tasks", "sojourn (s)"});
  RunningStat sojourn;
  for (JobId id : jt.jobs_in_order()) {
    const Job& job = jt.job(id);
    sojourn.add(job.sojourn());
    table.row({job.spec.name, std::to_string(job.tasks.size()), Table::num(job.sojourn())});
  }
  table.print();
  std::printf("\nscheduler=%s primitive=%s mean sojourn %.1f s\n", which.c_str(),
              to_string(primitive), sojourn.mean());
  maybe_print_digest(args, cluster);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: osap <gantt|config|trace> [flags]\n"
               "(the paper's two-job grid: osapd run configs/<fig>.matrix)\n"
               "\n"
               "  gantt    --primitive P  --r 0.5  --tl-state SZ  --th-state SZ\n"
               "           --seed 42  --cell 3.0  + common flags\n"
               "  config   <file>  --nodes 1  --seed 1  + common flags\n"
               "  trace    --scheduler %s  --primitive P\n"
               "           --jobs 12  --nodes 4  --seed 7  --file trace.txt  + common flags\n"
               "\n"
               "common flags (gantt, config, trace):\n"
               "  --digest             print the event-trace FNV digest after the run\n"
               "  --trace=FILE         write a Chrome trace-event JSON (docs/OBSERVABILITY.md)\n"
               "  --counters=FILE      write the observability JSON\n"
               "  --faults=FILE        inject a scripted failure plan (docs/FAULTS.md)\n"
               "  --speculation        enable speculative execution (docs/SPECULATION.md)\n"
               "  --spec-slowness X  --spec-cap N  --spec-min-runtime S\n"
               "\n"
               "primitives P: %s\n"
               "flags take --key value or --key=value; unknown flags are an error\n",
               core::kSchedulerNames, kPrimitiveSpellings);
  return 1;
}

/// The common observability/fault/speculation flags gantt, config and
/// trace all share.
std::vector<std::string> with_common(std::vector<std::string> allowed) {
  for (const char* f : {"digest", "trace", "counters", "faults", "speculation",
                        "spec-slowness", "spec-cap", "spec-min-runtime"}) {
    allowed.emplace_back(f);
  }
  return allowed;
}

}  // namespace
}  // namespace osap

int main(int argc, char** argv) {
  using namespace osap;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  try {
    if (cmd == "gantt") {
      args.check_allowed("osap", "gantt",
                         with_common({"primitive", "r", "tl-state", "th-state", "seed", "cell"}));
      return cmd_gantt(args);
    }
    if (cmd == "config") {
      args.check_allowed("osap", "config", with_common({"nodes", "seed"}));
      return cmd_config(args);
    }
    if (cmd == "trace") {
      args.check_allowed("osap", "trace",
                         with_common({"scheduler", "primitive", "jobs", "nodes", "seed", "file"}));
      return cmd_trace(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
