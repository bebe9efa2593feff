#!/usr/bin/env python3
"""Byte-compare the deterministic bench output of two build trees.

    tools/compare_outputs.py PARENT_BUILD CHANGE_BUILD

Runs every bench whose output is a pure simulated-time fact from
PARENT_BUILD/bench and CHANGE_BUILD/bench, drops the `sweep:` lines (wall
time, thread counts, RSS) and compares the rest byte for byte:

  * fig1-fig6, the five ablate_* benches and the four chaos benches, each
    at --jobs 1 and at --jobs 8;
  * scale_elastic --max-devices 50000 and scale_autoscale, each at --jobs 1
    and at --jobs 8;
  * the `digest:` lines of scale_million --max-pop 50000, at --jobs 1 and
    at --jobs 8.

--jobs 1 runs every job inline on the calling thread and --jobs 8 spreads
them over helper threads, so both of ParallelRunner's paths are compared.

scale_proxies and micro_core print only host rates and are left out. Each
bench runs in a temporary working directory, so the BENCH_*.json reports
(and any <bench>-cell<N>.chaos a failing chaos cell writes) never land in
the caller's tree. Prints one line per bench run; exits 1 at the first
difference, showing the first line where the two builds part.
"""

import argparse
import os
import subprocess
import sys
import tempfile

PAPER_BENCHES = [
    "fig1_overflow_waste",
    "fig2_overflow_loss",
    "fig3_buffer_prefetch",
    "fig4_expiration_waste",
    "fig5_expiration_loss",
    "fig6_expiration_threshold",
    "ablate_multidevice",
    "ablate_rank_changes",
    "ablate_rate_vs_buffer",
    "ablate_replication",
    "ablate_unified",
    "chaos_lasthop",
    "chaos_recovery",
    "chaos_overload",
    "chaos_unified",
]


def keep_all(line):
    return not line.startswith("sweep:")


def keep_digests(line):
    return line.startswith("digest:")


# (bench, arguments besides --jobs, which output lines are compared)
SCALE_BENCHES = [
    ("scale_elastic", ["--max-devices", "50000"], keep_all),
    ("scale_autoscale", [], keep_all),
    ("scale_million", ["--max-pop", "50000"], keep_digests),
]

# (bench, arguments, which output lines are compared)
RUNS = [
    (bench, ["--jobs", jobs], keep_all)
    for bench in PAPER_BENCHES
    for jobs in ("1", "8")
] + [
    (bench, ["--jobs", jobs] + args, keep)
    for bench, args, keep in SCALE_BENCHES
    for jobs in ("1", "8")
]


def bench_binary(build, bench):
    binary = os.path.join(os.path.abspath(build), "bench", bench)
    if not os.access(binary, os.X_OK):
        raise FileNotFoundError(f"no bench binary {binary}")
    return binary


def start(binary, args, workdir):
    """Starts one bench run in its own working directory."""
    rundir = tempfile.mkdtemp(dir=workdir)
    return subprocess.Popen(
        [binary] + args,
        cwd=rundir,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def finish(process, keep):
    output, _ = process.communicate()
    lines = [line for line in output.splitlines() if keep(line)]
    lines.append(f"exit status {process.returncode}")
    return lines


def first_difference(parent, change):
    for index, (old, new) in enumerate(zip(parent, change)):
        if old != new:
            return index, old, new
    if len(parent) == len(change):
        return None
    index = min(len(parent), len(change))
    old = parent[index] if index < len(parent) else "<end of output>"
    new = change[index] if index < len(change) else "<end of output>"
    return index, old, new


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_build", help="build tree of the parent commit")
    parser.add_argument("change_build", help="build tree of the change")
    options = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as workdir:
        for bench, args, keep in RUNS:
            label = " ".join([bench] + args)
            try:
                binaries = [
                    bench_binary(build, bench)
                    for build in (options.parent_build, options.change_build)
                ]
            except FileNotFoundError as error:
                print(f"MISSING    {label}: {error}")
                return 1
            # Both builds run the same bench side by side.
            parent, change = (start(binary, args, workdir) for binary in binaries)
            diff = first_difference(finish(parent, keep), finish(change, keep))
            if diff is not None:
                index, old, new = diff
                print(f"DIFFERENT  {label}: compared line {index + 1}")
                print(f"  parent: {old}")
                print(f"  change: {new}")
                return 1
            print(f"identical  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
