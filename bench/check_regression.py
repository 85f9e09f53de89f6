#!/usr/bin/env python3
"""Compare a perf_pipeline_stages JSON run against a committed baseline.

Usage: check_regression.py BASELINE.json CURRENT.json [--threshold PCT]

Flags a per-stage wall-clock regression when a stage is more than
--threshold percent slower than the baseline (default 25%) AND at least
5 ms slower in absolute terms (sub-millisecond stages are pure noise on
shared CI runners). Also fails when any identical_* check in the current
run is false — identity is a correctness bug, never noise.

Also understands serve_loadgen JSON: per-rung QPS — both the closed-loop
thread ladder ("runs") and the reactor shard ladder ("shard_ladder") —
is compared as a throughput (flagged when it DROPS more than --threshold
percent), p99 latency — global, per-endpoint, and per-shard-rung — rides
through the stage comparison, and oracle_ok=false anywhere (thread rung,
shard rung, or the open-loop rung) is an identity failure (the server
returned bytes that diverged from the dataset-derived oracle). The
open-loop rung is deliberately NOT latency-gated against the baseline:
its auto rate targets 1.25x the measured capacity, so its percentiles
measure queueing under saturation and move with runner speed — only its
oracle and transport-error count are hard signals. The
profiler_overhead block of perf_pipeline_stages is compared the same way
as tracer_overhead.

The scheduler block carries its own absolute gate, independent of the
baseline: every rung's SchedTelemetry recording overhead (the best of
several adjacent off/on pairs, measured by the bench itself) must stay
under SCHED_OVERHEAD_PCT — subject to the same 5 ms absolute floor,
since a percentage of a sub-10-ms rung is pure scheduler-noise
territory.

The delta_rung block (the incremental pipeline) is gated on its refresh
latency — mean_apply_ms and max_apply_ms ride through the stage
comparison, as does init_full_ms — and on byte-identity: any
identical_to_full=false tick is an identity failure (the delta-applied
snapshot rendered differently from the full-rebuild oracle).

The million_rung block is gated two ways: its peak_rss_bytes must not
grow more than --threshold percent over the baseline (with a 16 MiB
absolute floor — RSS is page-granular and allocator-noisy at small
downscaled N), and any identical_to_serial=false run fails like every
other identity check. Its per-rung wall_ms rides through the normal
stage comparison.

Only like runs are compared. When a block both runs carry differs in a
field that sets what it measures (CONFIG_FIELDS: the domain count, and
the tick count, churn, duration, listeners or backend where the block has
them), the script prints "refused: <block> config differs" and exits 2
without comparing anything. A block only one run carries is not compared.

Exit codes: 0 ok, 1 regression or identity failure, 2 usage/parse error
or unlike runs. Stdlib only; runs in the CI bench-smoke job after the
bench binary.
"""

import argparse
import json
import sys

ABS_FLOOR_MS = 5.0
ABS_FLOOR_RSS_BYTES = 16 * 1024 * 1024
SCHED_OVERHEAD_PCT = 3.0

# Per block, the fields that set what the block measures.
CONFIG_FIELDS = {
    "parallel_speedup": ("domains",),
    "million_rung": ("domains",),
    "delta_rung": ("domains", "ticks", "churn_fraction"),
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


def sched_overhead_failures(report):
    """Scheduler-telemetry rungs whose recording overhead breaches the
    absolute <3% budget (with the 5 ms noise floor)."""
    failures = []
    for run in report.get("scheduler", {}).get("runs", []):
        overhead_pct = run.get("overhead_pct", 0.0)
        delta_ms = run.get("on_ms", 0.0) - run.get("off_ms", 0.0)
        if overhead_pct > SCHED_OVERHEAD_PCT and delta_ms > ABS_FLOOR_MS:
            failures.append(
                f"scheduler.threads={run['threads']}: {overhead_pct:+.2f}% "
                f"({run.get('off_ms', 0.0):.1f} -> {run.get('on_ms', 0.0):.1f}"
                f" ms)")
    return failures


def stage_times(report):
    """Flattens the timed stages of one perf_pipeline_stages JSON object
    into {stage name: wall-clock ms}."""
    stages = {}
    for block in ("tracer_overhead", "profiler_overhead"):
        overhead = report.get(block, {})
        for key in ("off_ms", "on_ms"):
            if key in overhead:
                stages[f"{block}.{key}"] = overhead[key]
    for run in report.get("parallel_speedup", {}).get("runs", []):
        prefix = f"pipeline.threads={run['threads']}"
        stages[f"{prefix}.wall_ms"] = run["wall_ms"]
        if "rib_prepare_ms" in run:
            stages[f"{prefix}.rib_prepare_ms"] = run["rib_prepare_ms"]
            stages[f"{prefix}.vrp_prepare_ms"] = run["vrp_prepare_ms"]
    for run in report.get("setup_speedup", {}).get("runs", []):
        prefix = f"setup.threads={run['threads']}"
        stages[f"{prefix}.parse_ms"] = run["parse_ms"]
        stages[f"{prefix}.validate_ms"] = run["validate_ms"]
    for run in report.get("million_rung", {}).get("runs", []):
        stages[f"million.threads={run['threads']}.wall_ms"] = run["wall_ms"]
    delta_rung = report.get("delta_rung", {})
    for key in ("init_full_ms", "mean_apply_ms", "max_apply_ms"):
        if key in delta_rung:
            stages[f"delta.{key}"] = delta_rung[key]
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


def rss_figures(report):
    """Peak-RSS figures in bytes: {name: value}. Lower is better; growth
    beyond the threshold (and the absolute floor) is the regression."""
    figures = {}
    rung = report.get("million_rung", {})
    if "peak_rss_bytes" in rung:
        figures["million.peak_rss_bytes"] = rung["peak_rss_bytes"]
    return figures


def identity_failures(report):
    failures = []
    for block, key in (("parallel_speedup", "pipeline"),
                       ("setup_speedup", "setup"),
                       ("million_rung", "million")):
        for run in report.get(block, {}).get("runs", []):
            for field, value in run.items():
                if field.startswith("identical") and value is not True:
                    failures.append(f"{key}.threads={run['threads']}.{field}")
    for run in report.get("delta_rung", {}).get("runs", []):
        if run.get("identical_to_full", True) is not True:
            failures.append(f"delta.tick={run['tick']}.identical_to_full")
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
              f"({run.get('overhead_pct', 0.0):+7.1f}%) "
              f"util {run.get('utilization_pct', 0.0):5.1f}% "
              f"steal {run.get('steal_ratio', 0.0):.3f}")

    open_loop = current.get("serve_loadgen", {}).get("open_loop", {})
    if open_loop:
        print(f"serve.open_loop rate={open_loop.get('rate', 0):.0f}/s "
              f"achieved={open_loop.get('achieved_qps', 0):.0f} qps "
              f"p99={open_loop.get('p99_us', 0) / 1000.0:.1f} ms "
              f"p999={open_loop.get('p999_us', 0) / 1000.0:.1f} ms "
              f"(informational: saturation rung, not baseline-gated)")

    base_stages = stage_times(baseline)
    cur_stages = stage_times(current)
    regressions = []
    for name in sorted(base_stages):
        if name not in cur_stages:
            continue
        base_ms, cur_ms = base_stages[name], cur_stages[name]
        delta_pct = (cur_ms - base_ms) / base_ms * 100.0 if base_ms > 0 else 0.0
        regressed = (delta_pct > args.threshold
                     and cur_ms - base_ms > ABS_FLOOR_MS)
        marker = " <-- REGRESSION" if regressed else ""
        print(f"{name:44s} {base_ms:10.3f} -> {cur_ms:10.3f} ms "
              f"({delta_pct:+7.1f}%){marker}")
        if regressed:
            regressions.append(name)

    base_rss = rss_figures(baseline)
    cur_rss = rss_figures(current)
    for name in sorted(base_rss):
        if name not in cur_rss:
            continue
        base_bytes, cur_bytes = base_rss[name], cur_rss[name]
        delta_pct = ((cur_bytes - base_bytes) / base_bytes * 100.0
                     if base_bytes > 0 else 0.0)
        regressed = (delta_pct > args.threshold
                     and cur_bytes - base_bytes > ABS_FLOOR_RSS_BYTES)
        marker = " <-- REGRESSION" if regressed else ""
        print(f"{name:44s} {base_bytes / 2**20:10.1f} -> "
              f"{cur_bytes / 2**20:10.1f} MiB ({delta_pct:+7.1f}%){marker}")
        if regressed:
            regressions.append(name)

    base_rates = throughputs(baseline)
    cur_rates = throughputs(current)
    for name in sorted(base_rates):
        if name not in cur_rates:
            continue
        base_qps, cur_qps = base_rates[name], cur_rates[name]
        delta_pct = ((cur_qps - base_qps) / base_qps * 100.0
                     if base_qps > 0 else 0.0)
        regressed = delta_pct < -args.threshold
        marker = " <-- REGRESSION" if regressed else ""
        print(f"{name:44s} {base_qps:10.0f} -> {cur_qps:10.0f} qps "
              f"({delta_pct:+7.1f}%){marker}")
        if regressed:
            regressions.append(name)

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
