#!/usr/bin/env python3
"""perfbench: the ripki benchmark, one command per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run builds the benchmark binary (perfbench/CMakeLists.txt compiles libripki from
src/ into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench), runs
one workload with the fixed config of perfbench/config.json, and prints
two lines: the full result (config and host blocks, every metric with its
unit, sample counts) and, last, the benchmark result line

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

whose metrics are the end_to_end metrics of BENCHMARK.json with --trace 0
and its per_layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "churn", "serve_hot", "serve_churn")
RUN_TIMEOUT_S = 170
# malloc backs its heap with transparent huge pages (madvise). With 4 KiB
# pages the memory-bound churn ticks drifted by up to a third between runs
# on the reference VM, where every TLB miss walks two page tables.
MALLOC_TUNABLES = "glibc.malloc.hugetlb=1"
# Config keys that may differ between comparable results.
PER_RUN_KEYS = ("corrupt",)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return out / "perfbench"


def flags(settings):
    args = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        args += [flag, str(value)]
    return args


def run_binary(binary, workload, seed, seconds, trace, overrides=None,
               corrupt="none"):
    """Runs the workload in `processes` concurrent processes (lane 0, 1, ..)
    and merges their results."""
    config = json.loads((HERE / "config.json").read_text())
    settings = dict(config["common"])
    settings.update(config["workloads"][workload])
    settings.update(overrides or {})
    seconds = settings.pop("seconds", seconds)
    processes = settings.pop("processes", 1)
    build_root = build_dir()
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    running = []
    try:
        for lane in range(processes):
            command = [str(binary), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--corrupt", corrupt, "--lane", str(lane)] + flags(settings)
            if trace:
                command += ["--trace-out",
                            str(build_root / f"spans-{workload}-{seed}-{lane}.jsonl")]
            running.append(subprocess.Popen(command, stdout=subprocess.PIPE,
                                            text=True, env=env))
        results = []
        for process in running:
            stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
            lines = stdout.strip().splitlines()
            if process.returncode != 0 or not lines:
                sys.exit(f"perfbench: {workload} exited {process.returncode}")
            results.append(json.loads(lines[-1]))
    finally:
        for process in running:
            if process.poll() is None:
                process.kill()
            process.wait()
    return merge(results)


def quantile(values, q):
    """Linear-interpolated quantile, as the benchmark binary computes it."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median_metrics(blocks):
    """Per metric name, the median value over the blocks that report it."""
    merged = {}
    for name in dict.fromkeys(name for block in blocks for name in block):
        got = [block[name] for block in blocks if name in block]
        values = [m["value"] for m in got if m["value"] is not None]
        merged[name] = {"value": statistics.median(values) if values else None,
                        "unit": got[0]["unit"]}
    return merged


def merge(results):
    """One result from the results of concurrent processes. Latencies and
    throughput come from the pooled timed operations (samples_ms); every
    other metric is the median over the processes."""
    if len(results) == 1:
        return results[0]
    merged = dict(results[0])
    merged["config"] = dict(merged["config"], lane=None, processes=len(results))
    merged["correct"] = all(r["correct"] for r in results)
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["divergence"] = next((r["divergence"] for r in results if r["divergence"]), "")
    merged["wall_s"] = max(r["wall_s"] for r in results)
    merged["cpu_s"] = sum(r["cpu_s"] for r in results)
    for section in ("end_to_end", "per_layer", "detail"):
        merged[section] = median_metrics([r[section] for r in results])
    samples = [s for r in results for s in r["samples_ms"]]
    merged["samples_ms"] = []
    if samples:
        pooled = {"throughput_per_s": (len(samples) / (sum(samples) / 1000.0), "1/s"),
                  "latency_p50_ms": (quantile(samples, 0.5), "ms"),
                  "latency_tail_ms": (quantile(samples, 0.9), "ms")}
        for name, (value, unit) in pooled.items():
            merged["end_to_end"][name] = {"value": value, "unit": unit}
        merged["detail"].update({
            "tick_p50_ms": {"value": quantile(samples, 0.5), "unit": "ms"},
            "tick_p90_ms": {"value": quantile(samples, 0.9), "unit": "ms"},
            "tick_max_ms": {"value": max(samples), "unit": "ms"},
            "ticks": {"value": len(samples), "unit": "count"}})
    return merged


def result_line(result, bench, trace):
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for declared in bench[section]:
        name, unit = declared["name"], declared["unit"]
        got = result[section].get(name)
        if got is None:
            if trace:
                # A layer this workload does not exercise did no work.
                got = {"value": 0.0, "unit": unit}
            else:
                sys.exit(f"perfbench: {result['workload']} did not report {name}")
        if got["unit"] != unit or got["value"] is None:
            sys.exit(f"perfbench: {name} reported as {got}, declared {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def selftest(bench):
    """Every workload at tiny size, traced and not, with zero failures;
    then each corrupted expectation must be counted as a failure."""
    binary = build()
    tiny = json.loads((HERE / "config.json").read_text())["selftest"]
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_binary(binary, workload, 7, tiny["seconds"], trace, tiny)
            line = result_line(result, bench, trace)
            passed = line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            ok &= passed
            log(f"selftest {workload} trace={trace}: attempted={line['attempted']} "
                f"failed={line['failed']} {'ok' if passed else 'FAIL ' + result['divergence']}")
    for workload, corrupt in (("sweep", "row"), ("serve_hot", "body"),
                              ("serve_churn", "body"), ("serve_churn", "generation")):
        result = run_binary(binary, workload, 7, tiny["seconds"], 0, tiny, corrupt)
        caught = result["failed"] > 0 and not result["correct"]
        ok &= caught
        log(f"selftest {workload} corrupt={corrupt}: failed={result['failed']} "
            f"{'counted' if caught else 'ABSORBED'} ({result['divergence']})")
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def load_results(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def comparable_config(result):
    return {k: v for k, v in result["config"].items() if k not in PER_RUN_KEYS}


def median_change(a, b, section, name):
    old = statistics.median(r[section][name]["value"] for r in a)
    new = statistics.median(r[section][name]["value"] for r in b)
    return old, new, (new - old) / old if old else 0.0


def compare(before_path, after_path, bench):
    """Compares medians per workload. Refuses results whose config differs.
    On one host, every end-to-end metric is held to its bound; across hosts
    only the dimensionless ratio metrics of traced runs are compared, and
    only reported."""
    before, after = load_results(before_path), load_results(after_path)
    status = 0
    for workload in WORKLOADS:
        a = [r for r in before if r["workload"] == workload]
        b = [r for r in after if r["workload"] == workload]
        if not a or not b:
            continue
        configs = {json.dumps(comparable_config(r), sort_keys=True) for r in a + b}
        if len(configs) != 1:
            print(f"{workload}: refused, the config differs between results")
            status = 2
            continue
        if len({json.dumps(r["host"], sort_keys=True) for r in a + b}) != 1:
            a = [r for r in a if r["trace"] == 1]
            b = [r for r in b if r["trace"] == 1]
            print(f"{workload}: hosts differ, comparing ratio metrics of traced runs only")
            for declared in bench["per_layer"]:
                if declared["unit"] != "ratio" or not a or not b or not all(
                        declared["name"] in r["per_layer"] for r in a + b):
                    continue
                old, new, change = median_change(a, b, "per_layer", declared["name"])
                print(f"{workload:12} {declared['name']:32} {old:10.4f} -> "
                      f"{new:10.4f} {change:+8.2%}")
            continue
        a = [r for r in a if r["trace"] == 0]
        b = [r for r in b if r["trace"] == 0]
        for declared in bench["end_to_end"]:
            if not a or not b:
                continue
            old, new, change = median_change(a, b, "end_to_end", declared["name"])
            worse = change if declared["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > declared["bound"] else "ok"
            if verdict != "ok":
                status = max(status, 1)
            print(f"{workload:12} {declared['name']:18} {old:14.4f} -> {new:14.4f} "
                  f"{declared['unit']:6} {change:+8.2%} {verdict}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result line to this file")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, bench)
    if args.selftest:
        return selftest(bench)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    result = run_binary(build(), args.workload, args.seed, seconds, args.trace)
    full = json.dumps(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(full + "\n")
    print(full)
    print(json.dumps(result_line(result, bench, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
