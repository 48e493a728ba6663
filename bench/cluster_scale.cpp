// Simulator scalability: wall-clock cost of simulating bigger clusters
// and longer traces. Useful for sizing future "thorough experimental
// campaigns with realistic workloads" (§VI) on this substrate.
//
// The default run prints the small scaling table. The warehouse point —
// 1,000 nodes under a SWIM trace with speculation enabled and audits off
// (the recommended configuration for large batches) — runs with --scale
// or --json and is what CI gates against BENCH_scale.json via
// tools/bench_check.py (docs/PERF.md).
//
// Flags:
//   --scale              run the 1,000-node warehouse point
//   --json=FILE          write the compact gate JSON (events, wall time,
//                        events/sec, cluster counters with per-node
//                        counters aggregated, hot-path profile)
//   --observability=FILE write the full observability dump (all per-node
//                        counters) — published as a CI artifact
//   --nodes=N --jobs=N   override the warehouse point size
#include <chrono>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "sched/hfsp.hpp"
#include "workload/swim.hpp"

namespace osap {
namespace {

struct ScaleResult {
  double wall_ms;
  double sim_seconds;
  std::uint64_t events;
  double mean_sojourn;
};

struct ScaleOpts {
  bool speculation = false;
  bool audits = true;
  std::string json_file;
  std::string observability_file;
};

/// Aggregate per-node counters ("node17.vmm.paged_out_bytes") into
/// cluster totals ("nodes.vmm.paged_out_bytes") so the committed gate
/// baseline stays small and node-count-independent in shape. Counter
/// iteration is std::map order, so the totals are deterministic.
std::map<std::string, std::uint64_t> gate_counters(const trace::CounterRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : reg.counters()) {
    std::size_t digits = 0;
    if (name.rfind("node", 0) == 0) {
      while (4 + digits < name.size() && std::isdigit(name[4 + digits]) != 0) ++digits;
    }
    if (digits > 0 && 4 + digits < name.size() && name[4 + digits] == '.') {
      out["nodes" + name.substr(4 + digits)] += counter.value();
    } else {
      out[name] += counter.value();
    }
  }
  return out;
}

ScaleResult run_scale(int nodes, int jobs, const ScaleOpts& opts = {}) {
  const auto start = std::chrono::steady_clock::now();
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = nodes;
  cfg.hadoop.map_slots = 2;
  cfg.hadoop.speculative_execution = opts.speculation;
  cfg.audit.enabled = opts.audits;
  Cluster cluster(cfg);
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  cluster.set_scheduler(std::make_unique<HfspScheduler>(options));

  SwimConfig swim;
  swim.jobs = jobs;
  swim.mean_interarrival = seconds(600.0 / jobs);
  swim.max_tasks = 12;
  swim.stateful_fraction = 0.2;
  Rng rng(11);
  for (SwimJob& job : generate_swim_trace(swim, rng)) {
    cluster.submit_at(job.arrival, std::move(job.spec));
  }
  cluster.run();
  const auto end = std::chrono::steady_clock::now();

  RunningStat sojourn;
  for (JobId id : cluster.job_tracker().jobs_in_order()) {
    sojourn.add(cluster.job_tracker().job(id).sojourn());
  }
  const ScaleResult res{
      std::chrono::duration<double, std::milli>(end - start).count(),
      cluster.sim().now(),
      cluster.sim().events_processed(),
      sojourn.mean(),
  };

  if (!opts.observability_file.empty()) {
    std::ofstream os(opts.observability_file);
    cluster.sim().write_observability_json(os);
  }
  if (!opts.json_file.empty()) {
    std::ofstream os(opts.json_file);
    os << "{\n\"nodes\":" << nodes << ",\n\"jobs\":" << jobs << ",\n";
    os << "\"events_processed\":" << res.events << ",\n";
    os << "\"sim_seconds\":" << res.sim_seconds << ",\n";
    os << "\"wall_ms\":" << res.wall_ms << ",\n";
    os << "\"events_per_sec\":" << res.events / (res.wall_ms / 1000.0) << ",\n";
    os << "\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : gate_counters(cluster.sim().trace().counters())) {
      os << (first ? "\n" : ",\n") << "  \"" << name << "\":" << value;
      first = false;
    }
    os << "\n},\n";
    cluster.sim().trace().profiler().write_json(os);
    os << "\n}\n";
  }
  return res;
}

std::string flag_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

bool flag_set(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace
}  // namespace osap

int main(int argc, char** argv) {
  using namespace osap;
  bench::print_header("Simulator scalability (HFSP over SWIM traces)",
                      "substrate capability, not a paper figure");
  Table table({"nodes", "jobs", "sim time (s)", "events", "wall (ms)", "mean sojourn (s)"});
  for (const auto& [nodes, jobs] :
       {std::pair{1, 10}, {4, 25}, {8, 50}, {16, 100}, {32, 200}}) {
    const ScaleResult res = run_scale(nodes, jobs);
    table.row({std::to_string(nodes), std::to_string(jobs), Table::num(res.sim_seconds, 0),
               std::to_string(res.events), Table::num(res.wall_ms, 1),
               Table::num(res.mean_sojourn)});
  }
  table.print();

  ScaleOpts opts;
  opts.json_file = flag_value(argc, argv, "json");
  opts.observability_file = flag_value(argc, argv, "observability");
  if (flag_set(argc, argv, "scale") || !opts.json_file.empty() ||
      !opts.observability_file.empty()) {
    const std::string nodes_flag = flag_value(argc, argv, "nodes");
    const std::string jobs_flag = flag_value(argc, argv, "jobs");
    const int nodes = nodes_flag.empty() ? 1000 : std::stoi(nodes_flag);
    const int jobs = jobs_flag.empty() ? 2000 : std::stoi(jobs_flag);
    // The warehouse point: speculation exercises the straggler detector
    // at scale; periodic audits are off as recommended for large batches.
    opts.speculation = true;
    opts.audits = false;
    const ScaleResult res = run_scale(nodes, jobs, opts);
    std::printf("\nwarehouse point: %d nodes, %d jobs -> %llu events in %.0f ms "
                "(%.0f events/sec, mean sojourn %.1f s)\n",
                nodes, jobs, static_cast<unsigned long long>(res.events), res.wall_ms,
                res.events / (res.wall_ms / 1000.0), res.mean_sojourn);
    if (!opts.json_file.empty()) {
      std::printf("gate JSON written to %s\n", opts.json_file.c_str());
    }
    if (!opts.observability_file.empty()) {
      std::printf("observability JSON written to %s\n", opts.observability_file.c_str());
    }
  }

  std::printf("\nHours of cluster time simulate in milliseconds; seed-for-seed\n"
              "deterministic, so whole parameter studies are cheap.\n");
  return 0;
}
