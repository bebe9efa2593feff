#!/usr/bin/env python3
"""CI perf regression gate over committed BENCH_*.json reports.

Compares a freshly measured bench report against the committed baseline and
fails (exit 1) when a gated throughput metric regressed by more than the
allowed fraction, or when an absolute ceiling is exceeded:

    python3 tools/check_perf.py \
        --baseline BENCH_micro_core.json \
        --fresh bench-reports/BENCH_micro_core.json \
        --max-regression 0.15

    python3 tools/check_perf.py \
        --baseline BENCH_scale_million.json \
        --fresh bench-reports/BENCH_scale_million.json \
        --max-regression 0.15 \
        --gate events_per_sec \
        --ceiling rss_bytes_per_device_50k_s11=2048

Without --gate, the gated metric is metrics.engine_events_per_sec —
end-to-end simulator timer churn, the number the event-queue/arena work is
meant to move. --gate (repeatable) selects other metrics; a gate name is
looked up in "metrics" first, then among the top-level report fields, so
--gate events_per_sec gates the report's headline rate. The remaining
metrics are printed for the log but not gated: absolute numbers shift with
runner hardware, so anything tighter than a generous per-metric gate would
flake. Refresh the committed baseline (see EXPERIMENTS.md) whenever an
intentional engine change moves the number.

--ceiling NAME=VALUE (repeatable) is an absolute bound on a *fresh* metric —
used for budgets that must hold regardless of history, like the sharded
fleet's peak RSS per device. Ceilings are enforced even when no baseline is
committed yet.

A bench report that exists in the fresh run but has no committed baseline
yet (a newly added bench, first PR) is not a failure: the gate warns and
exits 0 so CI stays green until the baseline lands. The same applies to a
baseline that predates a gated metric. A missing *fresh* report, or a fresh
report missing a gated/ceiling'd metric, stays a hard error — the run was
supposed to produce it.
"""

import argparse
import json
import os
import sys

DEFAULT_GATE = "engine_events_per_sec"
REPORTED_METRICS = (
    "engine_events_per_sec",
    "ranked_queue_ops_per_sec",
    "wal_group_commit_speedup",
)


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != 1:
        sys.exit(f"{path}: unsupported bench report schema {report.get('schema')!r}")
    return report


def metric(report, key):
    """A metric by name: "metrics" first, then the top-level report fields
    (so "events_per_sec" resolves to the headline rate). Non-numeric
    top-level fields never match."""
    value = report.get("metrics", {}).get(key)
    if value is None:
        value = report.get(key)
    return value if isinstance(value, (int, float)) else None


def parse_ceiling(spec):
    name, _, value = spec.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {spec!r}")
    try:
        return name, float(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad ceiling value in {spec!r}: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH json")
    parser.add_argument("--fresh", required=True, help="freshly measured BENCH json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="allowed fractional drop in each gated metric (default 0.15)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=None,
        metavar="METRIC",
        help="metric to gate against the baseline (repeatable; default %s)"
        % DEFAULT_GATE,
    )
    parser.add_argument(
        "--ceiling",
        action="append",
        default=[],
        type=parse_ceiling,
        metavar="NAME=VALUE",
        help="absolute ceiling on a fresh metric (repeatable)",
    )
    args = parser.parse_args()
    gates = args.gate if args.gate else [DEFAULT_GATE]

    fresh = load(args.fresh)

    # Absolute ceilings hold with or without a committed baseline.
    for name, bound in args.ceiling:
        now = metric(fresh, name)
        if now is None:
            sys.exit(f"missing metric {name} in fresh report {args.fresh}")
        if now > bound:
            sys.exit(f"FAIL: {name} {now:.4g} exceeds ceiling {bound:.4g}")
        print(f"OK: {name} {now:.4g} within ceiling {bound:.4g}")

    if not os.path.exists(args.baseline):
        print(
            f"WARN: baseline {args.baseline} does not exist (new bench not "
            f"yet committed?) — skipping the perf gate"
        )
        return

    baseline = load(args.baseline)

    print(f"perf gate: {args.fresh} vs committed {args.baseline}")
    for key in dict.fromkeys(REPORTED_METRICS + tuple(gates)):
        base = metric(baseline, key)
        now = metric(fresh, key)
        if base is None or now is None:
            continue
        ratio = now / base if base else float("inf")
        print(f"  {key}: {base:.4g} -> {now:.4g}  ({ratio:.2f}x)")

    for key in gates:
        base = metric(baseline, key)
        now = metric(fresh, key)
        if base is None:
            print(
                f"WARN: baseline {args.baseline} has no metric {key} "
                f"— skipping this gate"
            )
            continue
        if now is None:
            sys.exit(f"missing metric {key} in fresh report {args.fresh}")

        floor = base * (1.0 - args.max_regression)
        if now < floor:
            sys.exit(
                f"FAIL: {key} regressed beyond {args.max_regression:.0%}: "
                f"{now:.4g} < floor {floor:.4g} (baseline {base:.4g})"
            )
        print(
            f"OK: {key} {now:.4g} within {args.max_regression:.0%} of "
            f"baseline {base:.4g}"
        )


if __name__ == "__main__":
    main()
