#!/usr/bin/env python3
"""The repository benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload warehouse --seed 1 --seconds 38 --trace 0

Builds perfbench/ (the osap libraries from src/ plus the harness) into
.bench_build/perfbench, runs the harness on one workload in a fresh
process, checks its outputs and prints the metrics BENCHMARK.json names:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
The last line of stdout is the JSON result. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warehouse", "paper_grid", "study_sweep")
# Time the harness may take beyond its measuring window: the last pass
# and, when traced, the counting pass.
SLACK_S = 110
# The highest percentile reported is the highest of these with at least
# ten samples beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# wall_s is this percentile of a run's pass times. The shared host only
# ever adds time to a pass, and its slow spells come and go within a run,
# so a low percentile spreads far less from run to run than the median
# (README "Noise on this host").
WALL_PERCENTILE = 10.0
# Per-layer metrics a workload never reaches, or that cannot be timed from
# outside on it, read 0 there: paper_grid and study_sweep cells build
# their cluster, trace and scheduler inside core::run_descriptor.
INSIDE_CELLS = ("workload.swim_gen_s", "hadoop.cluster_build_s", "sched.assign_s")
UNREACHED = {
    "warehouse": ("core.", "osapd."),
    "paper_grid": INSIDE_CELLS + ("osapd.",),
    "study_sweep": INSIDE_CELLS,
}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench").resolve()


def build(bdir):
    """Configure once, then let the build tool bring the harness up to date."""
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "osap_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (log: {log_path})", 1)
    return bdir / "osap_perfbench"


def run_harness(exe, args, bdir):
    """Run the harness as a process-group leader; kill the whole group on timeout."""
    work = bdir / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(HERE / "inputs"), "--work-dir", str(work)]
    log_path = bdir / f"harness-{args.workload}.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=args.seconds + SLACK_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die(f"harness timed out (log: {log_path})", 1)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print("\n".join(log_path.read_text(errors="replace").splitlines()[-20:]), file=sys.stderr)
        die(f"harness exited with status {proc.returncode} (log: {log_path})", 1)
    return json.loads(out)


def nearest_rank(samples, pct):
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(samples):
    """(percentile, value): the highest of PERCENTILES with at least ten
    samples beyond it, by nearest rank."""
    n = len(samples)
    for pct in PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            return pct, nearest_rank(samples, pct)
    return 0.0, 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, report, untraced, traced, names):
    """Every per-layer number: timers as the median over traced passes,
    counts as exact totals of one pass over the workload's cells."""
    timers = {}
    for name in sorted({k for p in traced for k in p["layers"]}):
        timers[name] = statistics.median(p["layers"][name] for p in traced)
    m = dict(report["counts"])
    m.update(timers)

    if workload == "study_sweep":
        m["sim.run_s"] = timers["osapd.compute_s"]
        cells = traced[0]["cells"]
        m["osapd.overhead_ms_per_cell"] = 1000 * ratio(
            timers["osapd.cold_s"] * timers["osapd.workers"] - timers["osapd.compute_s"], cells)
        m["osapd.hit_us"] = ratio(timers["osapd.hit_us"], timers["osapd.hit_lookups"])
    m["sim.events_per_s"] = ratio(m.get("sim.events", 0), m.get("sim.run_s", 0))
    m["hadoop.spec_waste"] = ratio(m.get("hadoop.spec_killed", 0), m.get("hadoop.spec_launched", 0))
    m["sched.assign_share"] = ratio(m.get("sched.assign_s", 0), m.get("sim.run_s", 0))
    m["preempt.resume_ratio"] = ratio(m.get("preempt.resumes", 0), m.get("preempt.suspends", 0))

    cell_passes = [p["cell_ms"] for p in traced if p["cell_ms"]]
    if cell_passes:
        m["core.cells"] = len(cell_passes[0])
        m["core.cell_ms.p50"] = statistics.median(statistics.median(c) for c in cell_passes)
        tails = [tail_percentile(c) for c in cell_passes]
        m["core.cell_ms.tail_pct"] = tails[0][0]
        m["core.cell_ms.tail"] = statistics.median(v for _, v in tails)

    m["trace_overhead"] = (statistics.median(p["wall_s"] for p in traced)
                           / statistics.median(p["wall_s"] for p in untraced) - 1)
    for name in names:
        if name.startswith(UNREACHED[workload]):
            m.setdefault(name, 0.0)
    return m


def checks(workload, report, passes, bdir, exe):
    """Output checks: (name, ok, detail) triples."""
    out = []
    folds = {p["fold"] for p in passes}
    if "count_pass_fold" in report["info"]:
        folds.add(report["info"]["count_pass_fold"])
    out.append(("same digest fold in every pass", len(folds) == 1, ", ".join(sorted(folds))))
    fold = sorted(folds)[0]

    # Untraced and traced runs of one build, with any seed, must agree.
    fold_file = bdir / "folds.json"
    digest = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    try:
        known = json.loads(fold_file.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{workload}@{digest}"
    earlier = known.setdefault(key, fold)
    fold_file.write_text(json.dumps(known, indent=1, sort_keys=True))
    out.append(("digest fold matches earlier runs of this build", earlier == fold,
                f"{fold} vs {earlier}"))

    diffs = "; ".join(f"{key[len('summary_diff_'):]}: {diff}"
                      for key, diff in sorted(report["info"].items())
                      if key.startswith("summary_diff_"))
    for name in sorted({k for p in passes for k in p["checks"]}):
        bad = sum(1 for p in passes if not p["checks"].get(name, True))
        detail = f"failed in {bad} of {len(passes)} passes" if bad else ""
        if bad and name == "warm_summary_identical":
            detail += f"; first difference: {diffs}"
        out.append((name.replace("_", " "), bad == 0, detail))

    if workload == "warehouse":
        scale = json.loads((ROOT / "BENCH_scale.json").read_text())
        info = report["info"]
        out.append(("BENCH_scale.json is the frozen point",
                    (scale["nodes"], scale["jobs"]) == (1000, 2000),
                    f"{scale['nodes']} nodes x {scale['jobs']} jobs"))
        out.append(("events_processed matches BENCH_scale.json",
                    int(info["events_processed"]) == scale["events_processed"],
                    f"{info['events_processed']} vs {scale['events_processed']}"))
        sim_seconds = float(info["sim_seconds"])
        out.append(("sim_seconds matches BENCH_scale.json",
                    f"{sim_seconds:.6g}" == f"{scale['sim_seconds']:.6g}",
                    f"{sim_seconds:.6g} vs {scale['sim_seconds']:.6g}"))
        for p in passes:
            if p["traced"]:
                out.append(("scheduler decorator saw every assign call",
                            p["layers"]["sched.timed_calls"]
                            == report["counts"]["sched.assign_calls"], ""))
                break
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "BENCH_scale.json", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            die(f"{needed} not found: run from a full checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    bdir = build_dir()
    exe = build(bdir)
    report = run_harness(exe, args, bdir)

    passes = report["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = [p["wall_s"] for p in untraced]

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(args.workload, report, untraced, traced, [m["name"] for m in wanted])
        values["failed_frac"] = ratio(failed, attempted)
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": nearest_rank(walls, WALL_PERCENTILE),
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "peak_rss_mib": report["peak_rss_kib"] / 1024,
            "ok_frac": 1 - ratio(failed, attempted),
        }

    results = checks(args.workload, report, passes, bdir, exe)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    results.append(("every metric of BENCHMARK.json measured", not missing, ", ".join(missing)))
    correct = all(ok for _, ok, _ in results)

    info = report["info"]
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"seed {args.seed}, digest fold {passes[0]['fold']}"
          + (f", trace digest {info['trace_digest']}" if "trace_digest" in info else ""))
    if "count_pass.cells_counted" in report["counts"]:
        print(f"counting pass: {report['counts']['count_pass.cells_counted']:.0f} cells counted "
              "(a failed cell writes no dump)")
    print(f"pass wall time over {len(walls)} untraced passes: p{WALL_PERCENTILE:g} "
          f"{nearest_rank(walls, WALL_PERCENTILE):.6g} s, median {statistics.median(walls):.6g} s, "
          f"max {max(walls):.6g} s")
    print(f"cells: {attempted} attempted, {failed} failed "
          f"(failed_frac {ratio(failed, attempted):.6f})")
    for reason, cells in sorted(report["failures"].items()):
        print(f"failure: {reason}")
        for cell in cells:
            print(f"    {cell}")
    if args.workload == "study_sweep":
        # Two sweeps a pass, one per matrix; README "Known defects".
        differed = sum(p["order_dependent"] for p in passes)
        firsts = "; ".join(f"{key[len('order_diff_'):]}: {diff}"
                           for key, diff in sorted(info.items()) if key.startswith("order_diff_"))
        print(f"known defect: osapd summaries depend on cell completion order; the warm "
              f"summary as served differed from the cold one in {differed} of "
              f"{2 * len(passes)} sweeps" + (f"; first difference: {firsts}" if firsts else ""))
    for name, ok, detail in results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
