#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh fig2 observability dump against the
committed baseline (BENCH_fig2.json at the repo root).

The simulator is deterministic, but the gate still compares with a
tolerance rather than bit-exactly: the baseline is regenerated rarely and
small counter drift (an extra heartbeat round, an audit sweep moved by a
config tweak) is expected churn, while a 2x jump in events_processed or
VmmReclaim work is exactly the kind of silent regression the gate exists
to catch.

The event-stream digest (trace_digest, present in the fig2 baseline) is
the exception: it is gated exactly. A changed digest means a changed
event stream, which every counter can miss by staying inside its band.

Wall-clock metrics (wall_ms, events_per_sec — present in the scale
baseline, BENCH_scale.json) are gated separately with a one-sided band:
runners vary wildly in speed, so only a large slowdown fails the gate
(current wall_ms above baseline * wall-tolerance, or events_per_sec
below baseline / wall-tolerance). Getting faster never fails.

Usage:
    bench_check.py BASELINE CURRENT [--tolerance 0.10] [--wall-tolerance 3.0]
    bench_check.py BASELINE --self-test

Under GitHub Actions (GITHUB_ACTIONS=true, or --github anywhere) each
gate failure is additionally emitted as a `::error` workflow annotation
so regressions surface on the PR checks tab, not just in the job log.

Exit status: 0 clean, 1 regression (or self-test failure), 2 bad input.
"""

import argparse
import copy
import json
import os
import sys


def annotate(github, title, message):
    """Emit a GitHub Actions ::error annotation (single line, escaped)."""
    if not github:
        return
    escaped = message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    print(f"::error title={title}::{escaped}")


# Wall-clock leaves: too noisy for the relative-deviation check, gated
# one-sided instead. "upper" = regression is exceeding the band upward.
WALL_KEYS = {"wall_ms": "upper", "events_per_sec": "lower"}


def flatten(dump):
    """Deterministic numeric leaves worth gating, as {dotted.key: value}."""
    out = {"events_processed": dump.get("events_processed", 0)}
    if "sim_seconds" in dump:
        out["sim_seconds"] = dump["sim_seconds"]
    for name, value in dump.get("counters", {}).items():
        out[f"counters.{name}"] = value
    for name, hp in dump.get("hot_paths", {}).items():
        out[f"hot_paths.{name}.calls"] = hp.get("calls", 0)
        out[f"hot_paths.{name}.work"] = hp.get("work", 0)
    return out


def deviation(base, cur):
    """Relative deviation with a floor so tiny counters don't dominate."""
    return abs(cur - base) / max(abs(base), 10.0)


def check(baseline, current, tolerance):
    """Return a list of (key, base, cur, deviation) regressions."""
    base_flat = flatten(baseline)
    cur_flat = flatten(current)
    problems = []
    for key, base in sorted(base_flat.items()):
        if key not in cur_flat:
            problems.append((key, base, None, float("inf")))
            continue
        dev = deviation(base, cur_flat[key])
        if dev > tolerance:
            problems.append((key, base, cur_flat[key], dev))
    for key in sorted(set(cur_flat) - set(base_flat)):
        print(f"note: new metric not in baseline (regenerate it?): {key}")
    return problems


def check_digest(baseline, current):
    """Exact trace_digest gate; returns [(base, cur)] on a mismatch."""
    if "trace_digest" not in baseline:
        return []
    base = baseline["trace_digest"]
    cur = current.get("trace_digest")
    return [] if cur == base else [(base, cur)]


def check_wall(baseline, current, wall_tolerance):
    """One-sided wall-clock band; returns (key, base, cur, limit) failures."""
    problems = []
    for key, side in sorted(WALL_KEYS.items()):
        if key not in baseline:
            continue
        base = baseline[key]
        cur = current.get(key)
        if cur is None:
            problems.append((key, base, None, base))
            continue
        limit = base * wall_tolerance if side == "upper" else base / wall_tolerance
        if (side == "upper" and cur > limit) or (side == "lower" and cur < limit):
            problems.append((key, base, cur, limit))
    return problems


def self_test(baseline, tolerance, wall_tolerance):
    """The gate must pass an identical dump and fail a perturbed one."""
    if check(baseline, baseline, tolerance):
        print("self-test FAILED: identical dump did not pass")
        return 1
    perturbed = copy.deepcopy(baseline)
    key = max(perturbed["counters"], key=lambda k: perturbed["counters"][k])
    perturbed["counters"][key] = int(perturbed["counters"][key] * (1 + 4 * tolerance)) + 100
    if not check(baseline, perturbed, tolerance):
        print(f"self-test FAILED: perturbing counters.{key} was not flagged")
        return 1
    dropped = copy.deepcopy(baseline)
    del dropped["counters"][key]
    if not check(baseline, dropped, tolerance):
        print(f"self-test FAILED: dropping counters.{key} was not flagged")
        return 1
    if check_digest(baseline, baseline):
        print("self-test FAILED: identical trace_digest did not pass")
        return 1
    if "trace_digest" in baseline:
        digest = baseline["trace_digest"]
        flipped = copy.deepcopy(baseline)
        flipped["trace_digest"] = digest[:-1] + ("1" if digest[-1] == "0" else "0")
        if not check_digest(baseline, flipped):
            print("self-test FAILED: a flipped trace_digest digit was not flagged")
            return 1
        del flipped["trace_digest"]
        if not check_digest(baseline, flipped):
            print("self-test FAILED: a missing trace_digest was not flagged")
            return 1
    if check_wall(baseline, baseline, wall_tolerance):
        print("self-test FAILED: identical wall metrics did not pass")
        return 1
    for wall_key, side in WALL_KEYS.items():
        if wall_key not in baseline:
            continue
        slowed = copy.deepcopy(baseline)
        factor = 2 * wall_tolerance
        slowed[wall_key] = (baseline[wall_key] * factor if side == "upper"
                            else baseline[wall_key] / factor)
        if not check_wall(baseline, slowed, wall_tolerance):
            print(f"self-test FAILED: {factor:g}x slowdown in {wall_key} was not flagged")
            return 1
    print("self-test passed: identical dump accepted, regressions flagged")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max relative deviation per metric (default 0.10)")
    ap.add_argument("--wall-tolerance", type=float, default=3.0,
                    help="one-sided slowdown factor allowed on wall-clock "
                         "metrics before failing (default 3.0; runners vary)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate itself flags an injected regression")
    ap.add_argument("--github", action="store_true",
                    default=os.environ.get("GITHUB_ACTIONS") == "true",
                    help="emit ::error annotations on failures (auto-enabled "
                         "when GITHUB_ACTIONS=true)")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot load baseline {args.baseline}: {e}")
        return 2

    if args.self_test:
        return self_test(baseline, args.tolerance, args.wall_tolerance)

    if not args.current:
        print("missing CURRENT dump (or use --self-test)")
        return 2
    try:
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot load current dump {args.current}: {e}")
        return 2

    problems = check(baseline, current, args.tolerance)
    digest_problems = check_digest(baseline, current)
    wall_problems = check_wall(baseline, current, args.wall_tolerance)
    if problems or digest_problems or wall_problems:
        if problems:
            print(f"bench regression vs {args.baseline} (tolerance {args.tolerance:.0%}):")
            for key, base, cur, dev in problems:
                shown = "MISSING" if cur is None else cur
                print(f"  {key}: baseline {base} -> current {shown} ({dev:.1%})")
                annotate(args.github, "bench regression",
                         f"{key}: baseline {base} -> current {shown} ({dev:.1%}) "
                         f"vs {args.baseline}")
        for base, cur in digest_problems:
            shown = "MISSING" if cur is None else cur
            print(f"  trace_digest: baseline {base} -> current {shown} (gated exactly)")
            annotate(args.github, "event stream changed",
                     f"trace_digest: baseline {base} -> current {shown} vs {args.baseline}")
        for key, base, cur, limit in wall_problems:
            shown = "MISSING" if cur is None else f"{cur:g}"
            print(f"  {key}: baseline {base:g} -> current {shown} "
                  f"(outside {args.wall_tolerance:g}x band, limit {limit:g})")
            annotate(args.github, "bench wall-clock regression",
                     f"{key}: baseline {base:g} -> current {shown} outside "
                     f"{args.wall_tolerance:g}x band (limit {limit:g}) "
                     f"vs {args.baseline}")
        print("If this change is intentional, regenerate the baseline:")
        if "scale" in args.baseline:
            print("  ./build/bench/cluster_scale --json=$(pwd)/BENCH_scale.json")
        elif "revoke" in args.baseline:
            print("  ./build/tools/osapd run configs/revoke.matrix --out /tmp/revoke.json --quiet")
            print("  ./tools/frontier_to_bench.py /tmp/revoke.json --out $(pwd)/BENCH_revoke.json")
        else:
            print("  ./build/tools/osapd instrument \"primitive=susp;r=0.5;seed=1\" \\")
            print("      --counters $(pwd)/BENCH_fig2.json --trace $(pwd)/BENCH_fig2_trace.json")
        return 1
    gated = len(flatten(baseline)) + sum(k in baseline for k in WALL_KEYS)
    exact = " and trace_digest exact" if "trace_digest" in baseline else ""
    print(f"bench gate clean: {gated} metrics within {args.tolerance:.0%} "
          f"(wall: {args.wall_tolerance:g}x band){exact} of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
