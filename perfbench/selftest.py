#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload run.py knows, declared in BENCHMARK.json or not, on
tiny designs (--scale smoke), untraced and traced, and checks that each
run exits 0, that its last line is the JSON result with exactly the
declared metrics of BENCHMARK.json (end-to-end ones untraced, per-layer
ones traced) with their units and finite values, and that every output
check passes. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d\n%s" % (where, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (where, sorted(result)))
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        fail("%s: output checks failed\n%s" % (where, proc.stdout))
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail("%s: missing %s, undeclared %s" % (
            where, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, metric in got.items():
        if metric["unit"] != want[name]:
            fail("%s: %s has unit %s, declared %s" % (
                where, name, metric["unit"], want[name]))
        if not math.isfinite(metric["value"]):
            fail("%s: %s is not finite" % (where, name))
    if not any(line.startswith("host {") for line in lines):
        fail("%s: no host fingerprint" % where)
    if any(line.startswith("check ") and " FAIL " in line for line in lines):
        fail("%s: a check line reports FAIL" % where)
    print("selftest: %s ok (%d metrics)" % (where, len(got)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    print("selftest: all runs ok")


if __name__ == "__main__":
    main()
