#!/usr/bin/env python3
"""Compare a perf_pipeline_stages or serve_loadgen JSON run against a
committed baseline.

Usage: check_regression.py BASELINE.json CURRENT.json [--threshold PCT]

Only like runs are compared, by perfbench's --compare rule:
  - When a block both runs carry differs in a field that sets what it
    measures (CONFIG_FIELDS), the script prints "refused: <block> config
    differs" and exits 2 without comparing anything. A block only one
    run carries is not compared.
  - Timings, RSS and QPS are compared only when both runs carry equal
    "host" blocks (perfbench's host fingerprint). Otherwise, or when a
    run has no host block, it prints that they are "not compared",
    reports both runs' speedup ratios, and exits on the checks that
    hold on any host alone.

The tracer and profiler overhead timings are named after their block's
clock ("clock", wall when absent), so a wall-clock baseline is never
compared with a CPU-time run.

On one host, a timing regresses when it is more than --threshold percent
(default 25%) AND at least 5 ms slower than the baseline (sub-millisecond
stages are noise on shared runners); million_rung.peak_rss_bytes when it
grows more than --threshold percent AND 16 MiB (RSS is page-granular and
allocator-noisy at downscaled N); a serve QPS figure (closed-loop thread
ladder and shard ladder) when it drops more than --threshold percent.
Serve p99 latency (global, per endpoint, per shard rung) rides through
the timing comparison. The open-loop rung is NOT latency-gated: its auto
rate targets 1.25x capacity, so its percentiles measure queueing under
saturation and move with runner speed.

On any host, the run fails when an identical_* field is false (identity
is a correctness bug, never noise); when oracle_ok is false anywhere or
the open-loop rung saw transport errors (the server's bytes diverged
from the dataset-derived oracle); or when a scheduler rung's
SchedTelemetry recording overhead (the median of several adjacent off/on
pairs run in alternating order, measured by the bench itself) exceeds
SCHED_OVERHEAD_PCT and the 5 ms floor. The pairs' min-max spread
(overhead_spread_pct) is printed beside the median, not gated.

Exit codes: 0 ok, 1 regression, identity/oracle failure or scheduler
overhead, 2 usage/parse error or unlike runs. Stdlib only; runs in the CI
bench-smoke job after the bench binaries.
"""

import argparse
import json
import sys

ABS_FLOOR_MS = 5.0
ABS_FLOOR_RSS_BYTES = 16 * 1024 * 1024
SCHED_OVERHEAD_PCT = 3.0

# Per block, the fields that set what the block measures.
CONFIG_FIELDS = {
    "config": ("domains",),
    "million_rung": ("domains",),
    "serve_loadgen": ("domains", "working_set", "seconds", "listeners",
                      "backend"),
}


def unlike_blocks(baseline, current):
    """Blocks both runs carry whose CONFIG_FIELDS differ."""
    unlike = []
    for block, fields in CONFIG_FIELDS.items():
        base, cur = baseline.get(block), current.get(block)
        if base is None or cur is None:
            continue
        if any(base.get(field) != cur.get(field) for field in fields):
            unlike.append(block)
    return unlike


def host_difference(baseline, current):
    """Why the two runs' hosts are unlike, or None when both carry equal
    host blocks."""
    base, cur = baseline.get("host"), current.get("host")
    if base is None or cur is None:
        return "a run has no host block"
    return ", ".join(f"{field} {base.get(field)!r} -> {cur.get(field)!r}"
                     for field in sorted(base.keys() | cur.keys())
                     if base.get(field) != cur.get(field)) or None


def spread(run):
    """The pairs' overhead range beside a median, or "" for a run that
    does not carry it."""
    if "overhead_spread_pct" not in run:
        return ""
    low, high = run["overhead_spread_pct"]
    return f", pairs {low:+.1f}..{high:+.1f}%"


def sched_overhead_failures(report):
    """Scheduler-telemetry rungs whose median recording overhead breaches
    the absolute <3% budget (with the 5 ms noise floor)."""
    failures = []
    for run in report.get("scheduler", {}).get("runs", []):
        overhead_pct = run.get("overhead_pct", 0.0)
        delta_ms = run.get("on_ms", 0.0) - run.get("off_ms", 0.0)
        if overhead_pct > SCHED_OVERHEAD_PCT and delta_ms > ABS_FLOOR_MS:
            failures.append(
                f"scheduler.threads={run['threads']}: {overhead_pct:+.2f}% "
                f"({run.get('off_ms', 0.0):.1f} -> {run.get('on_ms', 0.0):.1f}"
                f" ms{spread(run)})")
    return failures


def stage_times(report):
    """Flattens the timed stages of one run into {stage name: ms}. An
    overhead block's name carries its clock ("wall" when it names none),
    so a wall-clock baseline never pairs with a CPU-time run."""
    stages = {}
    for block in ("tracer_overhead", "profiler_overhead"):
        overhead = report.get(block, {})
        clock = overhead.get("clock", "wall")
        for key in ("off_ms", "on_ms"):
            if key in overhead:
                stages[f"{block}.{clock}.{key}"] = overhead[key]
    for run in report.get("setup_speedup", {}).get("runs", []):
        prefix = f"setup.threads={run['threads']}"
        stages[f"{prefix}.parse_ms"] = run["parse_ms"]
        stages[f"{prefix}.validate_ms"] = run["validate_ms"]
    for run in report.get("million_rung", {}).get("runs", []):
        stages[f"million.threads={run['threads']}.wall_ms"] = run["wall_ms"]
    serve = report.get("serve_loadgen", {})
    for run in serve.get("runs", []):
        if "p99_us" in run:
            stages[f"serve.threads={run['threads']}.p99_ms"] = (
                run["p99_us"] / 1000.0)
        for endpoint, stats in sorted(run.get("endpoints", {}).items()):
            if "p99_us" in stats:
                stages[f"serve.threads={run['threads']}.{endpoint}.p99_ms"] = (
                    stats["p99_us"] / 1000.0)
    for run in serve.get("shard_ladder", {}).get("runs", []):
        if "p99_us" in run:
            stages[f"serve.shards={run['shards']}.p99_ms"] = (
                run["p99_us"] / 1000.0)
    return stages


def throughputs(report):
    """Higher-is-better figures: {name: value}. Compared inverted (a DROP
    beyond the threshold is the regression)."""
    rates = {}
    serve = report.get("serve_loadgen", {})
    for run in serve.get("runs", []):
        if "qps" in run:
            rates[f"serve.threads={run['threads']}.qps"] = run["qps"]
    for run in serve.get("shard_ladder", {}).get("runs", []):
        if "qps" in run:
            rates[f"serve.shards={run['shards']}.qps"] = run["qps"]
    return rates


def speedups(report):
    """Thread-ladder speedups over serial: {name: ratio}. Dimensionless,
    so they are reported across hosts (never gated)."""
    ratios = {}
    for run in report.get("setup_speedup", {}).get("runs", []):
        for key in ("parse_speedup", "validate_speedup", "combined_speedup"):
            if key in run:
                ratios[f"setup.threads={run['threads']}.{key}"] = run[key]
    for run in report.get("million_rung", {}).get("runs", []):
        if "speedup" in run:
            ratios[f"million.threads={run['threads']}.speedup"] = run["speedup"]
    return ratios


def rss_figures(report):
    """Peak-RSS figures in bytes: {name: value}. Lower is better; growth
    beyond the threshold (and the absolute floor) is the regression."""
    figures = {}
    rung = report.get("million_rung", {})
    if "peak_rss_bytes" in rung:
        figures["million.peak_rss_bytes"] = rung["peak_rss_bytes"]
    return figures


def regressions_between(baseline, current, threshold):
    """Prints every timing, RSS and QPS figure both runs carry; returns the
    names that regressed more than `threshold` percent (and, for timings
    and RSS, more than the absolute floor)."""
    regressions = []
    # (figures, unit, divisor, format, absolute floor or None when higher
    # is better)
    for figures, unit, divisor, fmt, floor in (
            (stage_times, "ms", 1, "10.3f", ABS_FLOOR_MS),
            (rss_figures, "MiB", 2**20, "10.1f", ABS_FLOOR_RSS_BYTES),
            (throughputs, "qps", 1, "10.0f", None)):
        base, cur = figures(baseline), figures(current)
        for name in sorted(base.keys() & cur.keys()):
            old, new = base[name], cur[name]
            delta_pct = (new - old) / old * 100.0 if old > 0 else 0.0
            if floor is None:
                regressed = delta_pct < -threshold
            else:
                regressed = delta_pct > threshold and new - old > floor
            marker = " <-- REGRESSION" if regressed else ""
            print(f"{name:44s} {old / divisor:{fmt}} -> {new / divisor:{fmt}} "
                  f"{unit} ({delta_pct:+7.1f}%){marker}")
            if regressed:
                regressions.append(name)
    return regressions


def identity_failures(report):
    failures = []
    for block, key in (("setup_speedup", "setup"),
                       ("million_rung", "million")):
        for run in report.get(block, {}).get("runs", []):
            for field, value in run.items():
                if field.startswith("identical") and value is not True:
                    failures.append(f"{key}.threads={run['threads']}.{field}")
    serve = report.get("serve_loadgen", {})
    for run in serve.get("runs", []):
        if run.get("oracle_ok", True) is not True:
            failures.append(f"serve.threads={run['threads']}.oracle_ok")
    for run in serve.get("shard_ladder", {}).get("runs", []):
        if run.get("oracle_ok", True) is not True:
            failures.append(f"serve.shards={run['shards']}.oracle_ok")
    open_loop = serve.get("open_loop", {})
    if open_loop.get("oracle_ok", True) is not True:
        failures.append("serve.open_loop.oracle_ok")
    if open_loop.get("transport_errors", 0) > 0:
        failures.append("serve.open_loop.transport_errors")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent (default 25)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_regression: cannot load input: {error}", file=sys.stderr)
        return 2

    unlike = unlike_blocks(baseline, current)
    for block in unlike:
        print(f"refused: {block} config differs")
    if unlike:
        return 2

    broken = identity_failures(current)
    for name in broken:
        print(f"IDENTITY FAILURE: {name} is false")

    sched_broken = sched_overhead_failures(current)
    for name in sched_broken:
        print(f"SCHED OVERHEAD: {name} exceeds {SCHED_OVERHEAD_PCT:.0f}%")
    for run in current.get("scheduler", {}).get("runs", []):
        print(f"scheduler.threads={run['threads']:<34} "
              f"{run.get('off_ms', 0.0):10.3f} -> "
              f"{run.get('on_ms', 0.0):10.3f} ms "
              f"({run.get('overhead_pct', 0.0):+7.1f}%{spread(run)}) "
              f"util {run.get('utilization_pct', 0.0):5.1f}%")

    open_loop = current.get("serve_loadgen", {}).get("open_loop", {})
    if open_loop:
        print(f"serve.open_loop rate={open_loop.get('rate', 0):.0f}/s "
              f"achieved={open_loop.get('achieved_qps', 0):.0f} qps "
              f"p99={open_loop.get('p99_us', 0) / 1000.0:.1f} ms "
              f"p999={open_loop.get('p999_us', 0) / 1000.0:.1f} ms "
              f"(informational: saturation rung, not baseline-gated)")

    why = host_difference(baseline, current)
    if why is None:
        regressions = regressions_between(baseline, current, args.threshold)
    else:
        regressions = []
        print(f"hosts differ ({why}): timings, RSS and QPS are not compared; "
              f"speedup ratios, baseline -> current:")
        base_ratios, cur_ratios = speedups(baseline), speedups(current)
        for name in sorted(base_ratios.keys() | cur_ratios.keys()):
            print(f"{name:44s} {base_ratios.get(name, float('nan')):10.3f}x -> "
                  f"{cur_ratios.get(name, float('nan')):10.3f}x")

    if regressions:
        print(f"\n{len(regressions)} stage(s) regressed more than "
              f"{args.threshold:.0f}% over baseline: {', '.join(regressions)}")
    if broken:
        print(f"\n{len(broken)} identity check(s) failed")
    if sched_broken:
        print(f"\n{len(sched_broken)} scheduler rung(s) exceeded the "
              f"{SCHED_OVERHEAD_PCT:.0f}% telemetry overhead budget")
    return 1 if regressions or broken or sched_broken else 0


if __name__ == "__main__":
    sys.exit(main())
