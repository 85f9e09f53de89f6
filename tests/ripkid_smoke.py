#!/usr/bin/env python3
"""Route smoke test for ripkid: every route answers on exactly one port.

Usage: ripkid_smoke.py PATH/TO/ripkid

1. Full mode. Starts ripkid on ephemeral ports (--port 0 --api-port 0),
   reads both ports from its stdout, polls /runz until the first run has
   completed and checks the route matrix:
     telemetry port  200 on its ten routes; 404 on /pprofz, /accessz and
                     /slowz; no "serve_shards" block in /schedz.
     query port      200 on /, /v1/summary, /accessz, /slowz and
                     /pprofz?seconds=1.
   SIGINT must then stop the daemon with exit code 0.
2. Delta mode. Three 5%-churn ticks with the oracle on every tick, so
   each published snapshot is byte-compared to a full rebuild; exit code
   0 expected.

Kept out of ctest on purpose: the sanitizer jobs run ctest, and this
drives the daemon end to end. Exits nonzero on the first failed check.
"""

import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

DOMAINS = "500"
PORTS_DEADLINE_S = 30
FIRST_RUN_DEADLINE_S = 120
EXIT_DEADLINE_S = 60
DELTA_DEADLINE_S = 180

TELEMETRY_ROUTES = ["/", "/metrics", "/metrics.json", "/healthz", "/tracez",
                    "/schedz", "/logz", "/runz", "/varz", "/deltaz"]
QUERY_ONLY_ROUTES = ["/pprofz", "/accessz", "/slowz"]
QUERY_ROUTES = ["/", "/v1/summary", "/accessz", "/slowz",
                "/pprofz?seconds=1"]

# Loopback only: never route through a proxy from the environment.
OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(port, target, timeout=10):
    """(status, body) of GET http://127.0.0.1:<port><target>."""
    url = f"http://127.0.0.1:{port}{target}"
    try:
        with OPENER.open(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8", "replace")


def start(binary, *flags):
    """Starts ripkid; a reader thread queues its stdout lines."""
    proc = subprocess.Popen([binary, "--domains", DOMAINS, "--port", "0",
                             "--api-port", "0", *flags],
                            stdout=subprocess.PIPE, text=True)
    lines = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return proc, lines


def read_ports(lines):
    """Telemetry and query ports from the two listening lines."""
    patterns = {"telemetry": re.compile(r"telemetry on http://[^:]+:(\d+)/"),
                "query": re.compile(r"query api on http://[^:]+:(\d+)/")}
    ports = {}
    deadline = time.monotonic() + PORTS_DEADLINE_S
    while len(ports) < len(patterns):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            fail(f"no listening lines within {PORTS_DEADLINE_S} s "
                 f"(got {sorted(ports)})")
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            continue
        if line is None:
            fail("ripkid exited before printing both ports")
        for name, pattern in patterns.items():
            if match := pattern.search(line):
                ports[name] = int(match.group(1))
    return ports["telemetry"], ports["query"]


def wait_for_first_run(port):
    deadline = time.monotonic() + FIRST_RUN_DEADLINE_S
    while time.monotonic() < deadline:
        status, body = get(port, "/runz")
        if status == 200 and "no completed run yet" not in body:
            return
        time.sleep(0.2)
    fail(f"/runz reported no completed run within {FIRST_RUN_DEADLINE_S} s")


def expect(port, target, status, label):
    got, body = get(port, target, timeout=30)
    if got != status:
        fail(f"{label} {target}: status {got}, expected {status}: "
             f"{body[:200]!r}")
    print(f"ok   {label:9} {target} -> {got}")
    return body


def check_full_mode(binary):
    proc, lines = start(binary, "--iterations", "2", "--interval", "3600")
    try:
        telemetry, query = read_ports(lines)
        print(f"ports: telemetry {telemetry}, query {query}")
        wait_for_first_run(telemetry)
        for route in TELEMETRY_ROUTES:
            body = expect(telemetry, route, 200, "telemetry")
            if route == "/schedz" and '"serve_shards"' in body:
                fail("/schedz carries the serve_shards block")
        for route in QUERY_ONLY_ROUTES:
            expect(telemetry, route, 404, "telemetry")
        for route in QUERY_ROUTES:
            expect(query, route, 200, "query")
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=EXIT_DEADLINE_S)
        if code != 0:
            fail(f"full mode: exit code {code} after SIGINT")
        print("ok   full mode: SIGINT -> exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def check_delta_mode(binary):
    proc, _ = start(binary, "--delta", "--churn", "0.05", "--oracle-every",
                    "1", "--iterations", "3", "--interval", "1")
    try:
        code = proc.wait(timeout=DELTA_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"delta mode: still running after {DELTA_DEADLINE_S} s")
    if code != 0:
        fail(f"delta mode: exit code {code}")
    print("ok   delta mode: 3 oracle-checked ticks -> exit 0")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    started = time.monotonic()
    check_full_mode(sys.argv[1])
    check_delta_mode(sys.argv[1])
    print(f"ripkid smoke passed in {time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
