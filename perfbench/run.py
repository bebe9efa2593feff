#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload lasthop_year|fleet_day|elastic_resize \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
benchmark (with the library, compiled from src/) under .bench_build/; later
runs only rebuild what changed. With --trace 1 it also runs the span unit
test first.

The program prints its metrics; this script checks them against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer metric
with --trace 1, units as declared). A per-layer metric that perfbench/metrics.json
marks as not applicable to the workload is printed as 0. The last line of the
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lasthop_year", "fleet_day", "elastic_resize")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace, workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    with open(os.path.join(HERE, "metrics.json")) as f:
        table = {m["name"]: m for m in json.load(f)["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared}
    applicable = {name for name in units
                  if not trace or workload in table[name]["workloads"]}
    return units, applicable


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.trace and subprocess.run(
            [os.path.join(BUILD, "spans_test"), "--gtest_brief=1"],
            stdout=sys.stderr).returncode != 0:
        fail("span unit test failed")

    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--span-dir", os.path.join(ROOT, ".bench_build", "spans")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("perfbench exited with %d" % run.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    units, applicable = expected_metrics(args.trace, args.workload)
    printed = result["metrics"]
    for name, metric in printed.items():
        if name not in units:
            fail("metric %s is not declared in BENCHMARK.json" % name)
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
    missing = sorted(applicable - printed.keys())
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    metrics = {name: printed.get(name, {"value": 0.0, "unit": units[name]})
               for name in units}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
