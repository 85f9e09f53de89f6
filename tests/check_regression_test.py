#!/usr/bin/env python3
"""bench/check_regression.py compares like runs and refuses unlike ones.

Usage: check_regression_test.py CHECK_REGRESSION_PY BASELINE_JSON

Runs the checker on the baseline against itself (exit 0), against copies
that each change one config field (exit 2 and a "refused" line naming
the block), and against a copy that lacks a block (exit 0: a block only
one run carries is not compared).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def check(checker, baseline_path, current):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(current, f)
    try:
        return subprocess.run(
            [sys.executable, checker, baseline_path, f.name],
            capture_output=True, text=True)
    finally:
        os.unlink(f.name)


def main():
    checker, baseline_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        baseline = json.load(f)
    failures = []

    same = check(checker, baseline_path, baseline)
    if same.returncode != 0:
        failures.append(f"baseline vs itself exited {same.returncode}:\n"
                        f"{same.stdout}{same.stderr}")

    for block, field in (("parallel_speedup", "domains"),
                         ("million_rung", "domains"),
                         ("delta_rung", "domains"),
                         ("delta_rung", "churn_fraction"),
                         ("serve_loadgen", "domains"),
                         ("serve_loadgen", "backend")):
        changed = copy.deepcopy(baseline)
        value = changed[block][field]
        changed[block][field] = value + "-other" if isinstance(
            value, str) else value * 2
        result = check(checker, baseline_path, changed)
        refusal = f"refused: {block} config differs"
        if result.returncode != 2 or refusal not in result.stdout:
            failures.append(f"{block}.{field} changed: exit "
                            f"{result.returncode}, stdout:\n{result.stdout}")

    partial = copy.deepcopy(baseline)
    del partial["serve_loadgen"]
    result = check(checker, baseline_path, partial)
    if result.returncode != 0:
        failures.append(f"run without serve_loadgen exited "
                        f"{result.returncode}:\n{result.stdout}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
