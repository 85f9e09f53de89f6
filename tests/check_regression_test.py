#!/usr/bin/env python3
"""bench/check_regression.py compares like with like and refuses the rest.

Usage: check_regression_test.py CHECK_REGRESSION_PY BASELINE_JSON

Runs the checker on the baseline against itself (exit 0); against copies
that each change one config field (exit 2 and a "refused" line naming
the block); against a copy that lacks a block (exit 0: a block only one
run carries is not compared); and against copies with one timing doubled,
one identity or oracle check false, or a scheduler rung's median over
budget (its pairs' spread must be printed beside it) — on the baseline's
host, on another host (host.cpu_model changed) and without
a host block. Across hosts timings are not compared: only identity,
oracle and scheduler-budget failures exit 1. An overhead block timed in
CPU time is never compared with the baseline's wall-clock one, and is
compared with another CPU-time one.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CONFIG_FIELDS = (("config", "domains"),
                 ("million_rung", "domains"),
                 ("serve_loadgen", "domains"),
                 ("serve_loadgen", "working_set"),
                 ("serve_loadgen", "seconds"),
                 ("serve_loadgen", "listeners"),
                 ("serve_loadgen", "backend"))


def check(checker, baseline_path, current):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(current, f)
    try:
        return subprocess.run(
            [sys.executable, checker, baseline_path, f.name],
            capture_output=True, text=True)
    finally:
        os.unlink(f.name)


def slower_validate(report):
    """setup.threads=0.validate_ms doubled."""
    run = report["setup_speedup"]["runs"][0]
    assert run["threads"] == 0
    run["validate_ms"] *= 2


def broken_million(report):
    report["million_rung"]["runs"][1]["identical_to_serial"] = False


def broken_oracle(report):
    report["serve_loadgen"]["runs"][0]["oracle_ok"] = False


def sched_over_budget(report):
    run = report["scheduler"]["runs"][0]
    run["on_ms"] = run["off_ms"] * 1.10 + 10.0
    run["overhead_pct"] = (run["on_ms"] - run["off_ms"]) / run["off_ms"] * 100
    run["overhead_spread_pct"] = [-1.0, run["overhead_pct"] + 1.0]


def cpu_clock_overhead(report):
    """The tracer and profiler blocks timed in CPU time, each on_ms
    doubled: a regression only against a CPU-time baseline."""
    for block in ("tracer_overhead", "profiler_overhead"):
        report[block]["clock"] = "cpu"
        report[block]["on_ms"] *= 2


def same_host(report):
    pass


def other_host(report):
    report["host"]["cpu_model"] += " (another host)"


def no_host(report):
    del report["host"]


def main():
    checker, baseline_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []

    def expect(name, current, code, text=None):
        result = check(checker, baseline_path, current)
        if result.returncode != code or (text and text not in result.stdout):
            failures.append(f"{name}: exit {result.returncode} (want {code}"
                            f"{', ' + repr(text) if text else ''}), "
                            f"stdout:\n{result.stdout}{result.stderr}")

    if "host" not in baseline:
        failures.append("the baseline has no host block")
    validate_ms = baseline["setup_speedup"]["runs"][0]["validate_ms"]
    if validate_ms <= 5.0:
        failures.append(f"setup.threads=0.validate_ms is {validate_ms} ms: "
                        f"doubling it stays under the 5 ms floor")

    expect("baseline vs itself", baseline, 0)

    for block, field in CONFIG_FIELDS:
        changed = copy.deepcopy(baseline)
        value = changed[block][field]
        changed[block][field] = value + "-other" if isinstance(
            value, str) else value * 2
        expect(f"{block}.{field} changed", changed, 2,
               f"refused: {block} config differs")

    partial = copy.deepcopy(baseline)
    del partial["serve_loadgen"]
    expect("run without serve_loadgen", partial, 0)

    for host in (same_host, other_host, no_host):
        timing = host is same_host
        for fault, code in ((slower_validate, 1 if timing else 0),
                            (broken_million, 1),
                            (broken_oracle, 1),
                            (sched_over_budget, 1)):
            current = copy.deepcopy(baseline)
            host(current)
            fault(current)
            expect(f"{host.__name__} + {fault.__name__}", current, code,
                   None if timing else "not compared")

    if any("clock" in baseline[block]
           for block in ("tracer_overhead", "profiler_overhead")):
        failures.append("the baseline's overhead blocks name a clock: the "
                        "wall-against-cpu case needs a wall baseline")
    cpu_run = copy.deepcopy(baseline)
    cpu_clock_overhead(cpu_run)
    result = check(checker, baseline_path, cpu_run)
    if result.returncode != 0 or "tracer_overhead" in result.stdout:
        failures.append(f"wall baseline vs cpu run: exit {result.returncode} "
                        f"(want 0, no tracer_overhead pair), stdout:\n"
                        f"{result.stdout}{result.stderr}")
    cpu_baseline = copy.deepcopy(baseline)
    cpu_clock_overhead(cpu_baseline)
    for block in ("tracer_overhead", "profiler_overhead"):
        cpu_baseline[block]["on_ms"] /= 2
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(cpu_baseline, f)
    try:
        result = check(checker, f.name, cpu_run)
    finally:
        os.unlink(f.name)
    if (result.returncode != 1 or
            "tracer_overhead.cpu.on_ms" not in result.stdout):
        failures.append(f"cpu baseline vs cpu run: exit {result.returncode} "
                        f"(want 1, tracer_overhead.cpu.on_ms compared), "
                        f"stdout:\n{result.stdout}{result.stderr}")

    over_budget = copy.deepcopy(baseline)
    sched_over_budget(over_budget)
    expect("scheduler spread printed beside the median", over_budget, 1,
           "pairs -1.0..")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
