// osapd — the experiment-matrix sweep harness (docs/OSAPD.md).
//
//   osapd run <file.matrix> [flags]
//       Expand the matrix, shard the cells across a pool of forked
//       workers, stream ndjson progress to stdout, and finish with the
//       matrix summary JSON (per-cell records, per-group stats, the
//       fig2-style pivot).
//         --set key=v1,v2,...   replace/introduce an axis (repeatable)
//         --workers N           worker processes (default: hardware concurrency)
//         --cache-dir DIR       result cache location (default .osapd-cache)
//         --no-cache            disable the result cache entirely
//         --max-rss-mb N        per-worker RSS budget; over-budget runs
//                               abort-and-record and reschedule once
//         --out FILE            write the summary there instead of stdout
//         --quiet               suppress ndjson progress records
//       SIGINT drains in-flight cells, persists them to the cache, and
//       emits a partial summary; exit status 130. A second SIGINT kills
//       the harness immediately.
//
//   osapd expand <file.matrix> [--set ...]
//       Print each expanded cell as "<config-digest>  <canonical>"
//       without running anything.
//
//   osapd instrument <descriptor> [--counters FILE] [--trace FILE]
//       Run ONE cell in-process (descriptor syntax "k=v;k=v" or
//       "k=v,k=v") with observability files enabled, and print its
//       result record. This is the path CI uses to gate the fig2
//       representative point against BENCH_fig2.json.
//
// Running `osapd` with no arguments prints every descriptor axis with
// its default, per workload — read off core::axes() (src/core/run.cpp).
//
// Flags take either `--key value` or `--key=value` form (tools/cli_args.hpp);
// unknown flags are an error, never silently ignored. Numeric flags read
// exactly: `--workers 2.7` and `--max-rss-mb -1` are errors.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "cli_args.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "core/run.hpp"
#include "osapd/aggregate.hpp"
#include "osapd/expand.hpp"
#include "osapd/matrix.hpp"
#include "osapd/record.hpp"
#include "osapd/sweep.hpp"

namespace osap {
namespace {

volatile std::sig_atomic_t g_cancel = 0;

extern "C" void on_sigint(int) {
  if (g_cancel != 0) ::_exit(130);  // second ^C: the user means it
  g_cancel = 1;
}

/// The harness wall clock, injected into the pool so the deterministic
/// library never reads real time itself (lint rule DET-2). It only ever
/// stamps wall_ms on records and the summary — it steers nothing.
double wall_now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();  // osap-lint: allow(DET-2) harness-side wall-time stamp; never feeds the simulation
  return std::chrono::duration<double, std::milli>(t).count();
}

using cli::Args;

/// `--max-rss-mb`: 0 (no budget) or a budget in MiB.
std::uint64_t parse_mib(const std::string& text, std::string_view label) {
  return parse_integer<std::uint64_t>(text, label, 0, "a non-negative integer");
}

osapd::MatrixSpec load_matrix(const Args& args) {
  OSAP_CHECK_MSG(!args.positional.empty(), "expected a .matrix file argument");
  const std::string path = args.positional[0];
  std::ifstream in(path);
  OSAP_CHECK_MSG(in, "cannot open matrix file " << path);
  osapd::MatrixSpec spec = osapd::parse_matrix(in, path);
  for (const auto& [key, v] : args.flags) {
    if (key == "set") osapd::apply_set(spec, v);
  }
  return spec;
}

int cmd_expand(const Args& args) {
  args.check_allowed("osapd", "expand", {"set"});
  const std::vector<core::RunDescriptor> cells = osapd::expand(load_matrix(args));
  for (const core::RunDescriptor& d : cells) {
    std::printf("%s  %s\n", d.digest_hex().c_str(), d.canonical().c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  args.check_allowed("osapd", "run",
                     {"set", "workers", "cache-dir", "no-cache", "max-rss-mb", "out", "quiet"});
  osapd::SweepOptions opts;
  const unsigned hw = std::thread::hardware_concurrency();
  opts.pool.workers = args.num("workers", hw > 0 ? static_cast<int>(hw) : 2, parse_count);
  opts.pool.max_rss_bytes = args.num<std::uint64_t>("max-rss-mb", 0, parse_mib) * 1024 * 1024;
  const std::vector<core::RunDescriptor> cells = osapd::expand(load_matrix(args));
  opts.pool.now_ms = &wall_now_ms;
  opts.pool.cancel = &g_cancel;
  if (!args.has("no-cache")) opts.cache_dir = args.get("cache-dir", ".osapd-cache");
  if (!args.has("quiet")) opts.progress = &std::cout;

  std::signal(SIGINT, on_sigint);
  const double t0 = wall_now_ms();
  const osapd::SweepOutcome outcome = osapd::run_sweep(cells, opts);
  const double wall = wall_now_ms() - t0;
  std::signal(SIGINT, SIG_DFL);

  const auto harness = osapd::harness_counters(outcome, cells.size());
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    osapd::write_summary_json(std::cout, cells, outcome.cells, outcome.cancelled, harness,
                              wall);
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    OSAP_CHECK_MSG(out.good(), "cannot write summary to " << out_path);
    osapd::write_summary_json(out, cells, outcome.cells, outcome.cancelled, harness, wall);
  }

  if (outcome.cancelled) return 130;
  for (const osapd::CellResult& cell : outcome.cells) {
    if (!cell.ok) return 1;
  }
  return 0;
}

int cmd_instrument(const Args& args) {
  args.check_allowed("osapd", "instrument", {"counters", "trace"});
  OSAP_CHECK_MSG(!args.positional.empty(), "expected a descriptor argument (\"k=v;k=v\")");
  const core::RunDescriptor d =
      core::normalize_descriptor(core::RunDescriptor::parse(args.positional[0]));
  core::RunOptions ropts;
  ropts.counters_file = args.get("counters", "");
  ropts.trace_file = args.get("trace", "");
  const double t0 = wall_now_ms();
  core::ResultRecord rec = core::run_descriptor(d, ropts);
  rec.wall_ms = wall_now_ms() - t0;
  std::printf("%s\n", osapd::serialize_record(d.canonical(), rec).c_str());
  return rec.ok ? 0 : 1;
}

/// The axes each workload accepts, `key=default` or a bare key for an
/// optional axis, wrapped to the terminal.
std::string axis_usage() {
  std::string out = "\ndescriptor axes (key=default; a bare key has none):\n";
  for (std::size_t w = 0; w < std::size(core::kWorkloads); ++w) {
    std::string line = "  workload=";
    line += core::kWorkloads[w];
    line += w == 0 ? " (default):" : ":";
    for (const core::Axis& a : core::axes()) {
      if ((a.workloads & (1u << w)) == 0 || a.name == "workload") continue;
      std::string item(a.name);
      if (a.fallback != nullptr) {
        item += '=';
        item += a.fallback;
      }
      if (line.size() + 1 + item.size() > 78) {
        out += line;
        out += '\n';
        line = "   ";
      }
      line += ' ';
      line += item;
    }
    out += line;
    out += '\n';
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: osapd <run|expand|instrument> ...\n"
               "  run <file.matrix> [--set k=v1,v2]... [--workers N] [--cache-dir DIR]\n"
               "                    [--no-cache] [--max-rss-mb N] [--out FILE] [--quiet]\n"
               "  expand <file.matrix> [--set k=v1,v2]...\n"
               "  instrument <descriptor> [--counters FILE] [--trace FILE]\n"
               "%s",
               axis_usage().c_str());
  return 1;
}

}  // namespace
}  // namespace osap

int main(int argc, char** argv) {
  using namespace osap;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "expand") return cmd_expand(args);
    if (cmd == "instrument") return cmd_instrument(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "osapd: error: %s\n", e.what());
    return 1;
  }
  return usage();
}
