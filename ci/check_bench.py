#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh bench JSON against the
committed baseline in bench/baselines/ and fail on large regressions.

    check_bench.py sched      fresh.json baseline.json [--tolerance R]
    check_bench.py dataplane  fresh.json baseline.json [--tolerance R]
    check_bench.py substrates fresh.json baseline.json [--tolerance R]
    check_bench.py policy     fresh.json baseline.json [--tolerance R]
    check_bench.py shard      fresh.json baseline.json [--tolerance R]

Every suite is described by one declarative table (SUITES below): which
JSON rows to walk, which fields are metrics, which direction is better,
and optional per-metric tolerance overrides and absolute floors. The
comparison loop is shared; adding a bench means adding a table entry,
not another hand-rolled extractor.

The baselines are recorded on one machine and CI runs on another, so
this is a coarse gate, not a perf test: with the default tolerance a
throughput metric may drop to 1/R of baseline (and a latency metric
grow Rx) before the gate trips. It exists to catch order-of-magnitude
regressions — an accidentally quadratic scheduler loop, a disabled
fast path — not single-digit-percent noise. It also fails if a metric
present in the baseline disappears from the fresh run, so renaming a
bench without updating the baseline is loud. Metrics with an absolute
floor (`min_value`) additionally gate the fresh value against that
floor no matter what the baseline says — used for hard acceptance
criteria like the 1→8 shard ingest scaling ratio.

Exit codes: 0 ok, 1 regression or missing metric, 2 usage/format error.
"""
import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

HIGHER = "higher"  # throughputs, ratios: regression = dropping
LOWER = "lower"    # latencies, makespans: regression = growing


@dataclass(frozen=True)
class Metric:
    """One numeric field of a row (or of the document for Scalar)."""
    fld: str
    direction: str
    tolerance: Optional[float] = None  # overrides --tolerance
    min_value: Optional[float] = None  # absolute floor on the fresh value


@dataclass(frozen=True)
class Rows:
    """Walk doc[path] (a list of objects); one metric set per row, named
    `<path>/<label fields>/<field>`."""
    path: str
    label: tuple  # row fields concatenated into the metric name
    metrics: tuple
    exclude: dict = field(default_factory=dict)  # skip rows matching these


@dataclass(frozen=True)
class Scalar:
    """A single document-level value at a dot path (e.g. "gc.peak_ratio").
    Booleans compare as 1.0/0.0. Missing optional scalars are skipped on
    both sides; a missing required one is a format error."""
    path: str
    direction: str
    tolerance: Optional[float] = None
    min_value: Optional[float] = None
    optional: bool = False


SUITES = {
    "sched": (
        Rows("sizes", ("tasks",), (
            Metric("ingest_tasks_per_sec", HIGHER),
            Metric("drain_tasks_per_sec", HIGHER),
            Metric("push_us_per_block", LOWER),
        )),
    ),
    "dataplane": (
        # The contiguous fast path must stay meaningfully ahead of the
        # element-wise oracle; speedup is machine-relative, so it rides
        # the ratio gate like everything else.
        Rows("kernels", ("name",), (
            Metric("fast_mbps", HIGHER),
            Metric("speedup", HIGHER),
        )),
        Scalar("push.speedup", HIGHER, optional=True),
    ),
    "substrates": (
        # google-benchmark JSON; aggregate rows repeat the raw ones.
        Rows("benchmarks", ("name",), (
            Metric("real_time", LOWER),
        ), exclude={"run_type": "aggregate"}),
    ),
    "policy": (
        # Sim makespans are deterministic model predictions, so they gate
        # exactly (within tolerance for model recalibrations).
        Rows("rows", ("scenario",), (
            Metric("makespan", LOWER),
        )),
    ),
    "shard": (
        # Wall-clock throughput per shard count on the threads substrate
        # (modeled service times dominate; see bench/micro_shard.cpp).
        Rows("shards", ("shards",), (
            Metric("ingest_tasks_per_sec", HIGHER),
            Metric("drain_tasks_per_sec", HIGHER),
            Metric("push_us_per_block", LOWER),
        )),
        # GC arm: worker peak residency with release_consumed on, per
        # shard count. keys_released is an exact count (== steps), so any
        # drop means the cross-shard lifetime protocol stopped draining.
        Rows("gc", ("shards",), (
            Metric("peak_blocks", LOWER),
            Metric("keys_released", HIGHER),
        )),
        # Hard bound, machine-independent: every shard count kept the
        # peak <= 4 blocks and released every consumed key.
        Scalar("gc_residency_bounded", HIGHER, min_value=1.0),
        # Acceptance criterion: ingest at 1e6 tasks must scale >= 3x from
        # the smallest to the largest shard count, on any machine.
        Scalar("ingest_scaling_min_to_max_shards", HIGHER, min_value=3.0),
    ),
}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def as_number(value):
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return float(value)


def dig(doc, dotpath):
    cur = doc
    for part in dotpath.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def extract(suite, doc, path):
    """Flatten a bench JSON into {metric name: (value, Metric/Scalar)}
    according to the suite's declarative table."""
    out = {}
    for entry in SUITES[suite]:
        if isinstance(entry, Rows):
            for row in doc.get(entry.path, []):
                if any(row.get(k) == v for k, v in entry.exclude.items()):
                    continue
                label = "/".join(str(row[f]) for f in entry.label)
                for m in entry.metrics:
                    if m.fld not in row:
                        print(
                            f"error: {path}: row {label} of '{entry.path}'"
                            f" lacks field '{m.fld}'",
                            file=sys.stderr,
                        )
                        sys.exit(2)
                    out[f"{entry.path}/{label}/{m.fld}"] = (
                        as_number(row[m.fld]), m)
        else:  # Scalar
            value = dig(doc, entry.path)
            if value is None:
                if entry.optional:
                    continue
                print(f"error: {path}: missing '{entry.path}'",
                      file=sys.stderr)
                sys.exit(2)
            out[entry.path] = (as_number(value), entry)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=sorted(SUITES))
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="allowed regression ratio vs baseline (default 4.0: "
        "throughput may drop to 1/4, latency may grow 4x)",
    )
    args = ap.parse_args()
    if args.tolerance <= 1.0:
        print("error: --tolerance must be > 1", file=sys.stderr)
        sys.exit(2)

    fresh = extract(args.kind, load(args.fresh), args.fresh)
    base = extract(args.kind, load(args.baseline), args.baseline)
    if not base:
        print(f"error: baseline {args.baseline} has no metrics", file=sys.stderr)
        sys.exit(2)

    failures = []
    for name, (bval, spec) in sorted(base.items()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run")
            continue
        fval = fresh[name][0]
        tol = spec.tolerance if spec.tolerance is not None else args.tolerance
        ok = True
        detail = ""
        if bval > 0:  # a non-positive baseline has no sensible ratio
            ratio = fval / bval
            detail = f", ratio {ratio:.2f}"
            ok = (ratio >= 1.0 / tol if spec.direction == HIGHER
                  else ratio <= tol)
            if not ok:
                failures.append(
                    f"{name}: fresh {fval:.4g} vs baseline {bval:.4g} "
                    f"exceeds tolerance {tol}x"
                )
        if spec.min_value is not None and fval < spec.min_value:
            ok = False
            failures.append(
                f"{name}: fresh {fval:.4g} below required floor "
                f"{spec.min_value:.4g}"
            )
        marker = "ok " if ok else "REG"
        floor = (f", floor {spec.min_value:.4g}"
                 if spec.min_value is not None else "")
        print(
            f"{marker} {name}: fresh {fval:.4g} vs baseline {bval:.4g} "
            f"({spec.direction} better{detail}{floor})"
        )

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nall {len(base)} metrics within tolerance of baseline")


if __name__ == "__main__":
    main()
