#!/usr/bin/env python3
"""Interleaved same-host A/B of the real-cost benchmark: BASE vs this tree.

    python3 ci/ab.py BASE [--workload NAME|all] [--pairs 10] [--seconds 30] [--seed 1] [--trace]
    python3 ci/ab.py --self-test

BASE is any git revision. It is exported with `git archive` into a
temporary directory (a plain copy: perfbench builds into the tree it runs
from, and a worktree would share this repository's git state). Pair i
runs perfbench/run.py once in each tree with seed --seed + i, and the side
that runs first alternates from pair to pair. This tree is the working
tree, uncommitted edits included.

For each workload and each end-to-end metric of BENCHMARK.json it prints
both medians and quartiles, the number of pairs the change won, and one
verdict:

    gain        the change won at least 9 of 10 pairs and its median beats
                BASE's by more than BASE's interquartile range
    worse       the change's median is worse than BASE's by more than the
                metric's BENCHMARK.json bound
    unresolved  either side's interquartile range exceeds that bound
    no change   otherwise

With --trace each run is `perfbench/run.py --trace 1`, and the report is
one row per per-layer metric of BENCHMARK.json instead: both medians and
quartiles over the pairs and the change in the median, with no verdict,
because per-layer metrics have no bounds.

Exit codes: 0 every run correct, 1 some run failed its output checks,
2 usage, export or build error. --self-test checks the verdict rule and
the --trace row on canned numbers and runs nothing.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
MIN_WON_SHARE = 0.9


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def describe(values, unit):
    q1, q3 = quartiles(values)
    return f"{median(values):.4f} [{q1:.4f}, {q3:.4f}] {unit}"


def pairs_won(base, change, better):
    """Pairs (same seed) in which the change did strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - b) < 0 for b, c in zip(base, change))


def median_delta(base, change):
    """Change in the median, in percent of BASE's ("n/a" when BASE's is 0)."""
    b_med = median(base)
    return f"{100.0 * (median(change) / b_med - 1.0):+7.1f}%" if b_med else "    n/a"


def layer_row(name, unit, base, change):
    """One --trace row: both sides' medians and quartiles, and the change
    in the median. No verdict: per-layer metrics have no bounds."""
    return (f"  {name:<30} {describe(base, unit):>36} {describe(change, unit):>36}"
            f" {median_delta(base, change)}")


def verdict(base, change, better, bound):
    """Verdict on one metric; base[i] and change[i] ran with the same seed."""
    b_med, c_med = median(base), median(change)
    gap = (b_med - c_med) * (1.0 if better == "lower" else -1.0)  # > 0: better
    won = pairs_won(base, change, better)
    b_q1, b_q3 = quartiles(base)
    if won >= math.ceil(MIN_WON_SHARE * len(base)) and gap > b_q3 - b_q1:
        return "gain"
    if -gap > bound * abs(b_med):
        return "worse"
    for values in (base, change):
        q1, q3 = quartiles(values)
        if q3 - q1 > bound * abs(median(values)):
            return "unresolved"
    return "no change"


def self_test():
    flat = [3.00, 2.90, 3.10, 2.95, 3.05, 3.00, 2.98, 3.02, 2.97, 3.03]
    cases = [
        # 10/10 lower, gap far above the IQR.
        ("gain", flat, [v * 0.4 for v in flat], "lower", 0.25),
        # Same numbers for a higher-is-better metric: 0/10 won, -60 %.
        ("worse", flat, [v * 0.4 for v in flat], "higher", 0.25),
        ("gain", flat, [v * 1.5 for v in flat], "higher", 0.25),
        # 8/10 won is not enough, however large the gap.
        ("no change", flat, [v * 0.8 for v in flat[:8]] + flat[8:], "lower", 0.25),
        # 10/10 won, but a 1 % gap inside BASE's ~2.3 % IQR.
        ("no change", flat, [v * 0.99 for v in flat], "lower", 0.25),
        ("worse", flat, [v * 1.3 for v in flat], "lower", 0.25),
        # +9 % against a 10 % bound: within it.
        ("no change", flat, [v * 1.09 for v in flat], "lower", 0.10),
        # BASE spreads ~40 % around its median: nothing can be told.
        ("unresolved", [1.0, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 1.1, 0.9, 1.5],
         [1.05] * 10, "lower", 0.25),
        # A spread within the bound on both sides.
        ("no change", [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99],
         [1.0] * 10, "lower", 0.25),
    ]
    bad = 0
    for want, base, change, better, bound in cases:
        got = verdict(base, change, better, bound)
        if got != want:
            bad += 1
            print(f"ab self-test: want {want!r}, got {got!r} for better={better} "
                  f"bound={bound} base={base} change={change}", file=sys.stderr)
    # --trace: a per-layer row halved by the change, reported without a verdict.
    row = layer_row("ml.drain_s", "s", [0.40, 0.44, 0.42, 0.46, 0.38],
                    [0.20, 0.22, 0.21, 0.23, 0.19])
    want_row = "ml.drain_s 0.4200 [0.3900, 0.4500] s 0.2100 [0.1950, 0.2250] s -50.0%"
    if row.split() != want_row.split():
        bad += 1
        print(f"ab self-test: want --trace row {want_row!r}, got {row!r}", file=sys.stderr)
    total = len(cases) + 1
    print(f"ab self-test: {total - bad}/{total} cases pass ({len(cases)} verdict, 1 --trace row)")
    return 1 if bad else 0


def export(base, dest):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base],
                             capture_output=True)
    if archive.returncode != 0:
        fail(f"git archive {base}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_perfbench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"perfbench exited with {proc.returncode} in {tree}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="git revision to compare against")
    ap.add_argument("--workload", default="all",
                    help="a workload named in BENCHMARK.json, or all of them")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--trace", action="store_true",
                    help="run perfbench with --trace 1 and compare the per-layer metrics")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.pairs < 1:
        ap.error("BASE and --pairs >= 1 are required")

    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in cfg["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists {', '.join(names)}")
    workloads = names if args.workload == "all" else [args.workload]
    metrics = cfg["per_layer"] if args.trace else cfg["end_to_end"]

    values = {(w, side): [] for w in workloads for side in ("base", "change")}
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        export(args.base, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in order:
                    out = run_perfbench(trees[side], w, seed, args.seconds, args.trace)
                    if not out["correct"]:
                        incorrect += 1
                    values[(w, side)].append(out["metrics"])
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: "
                          f"correct {out['correct']} failed {out['failed']}",
                          file=sys.stderr, flush=True)

    seeds = f"{args.seed}-{args.seed + args.pairs - 1}"
    print(f"A/B {args.base} (base) vs working tree (change): {args.pairs} pairs, "
          f"seeds {seeds}, --seconds {args.seconds:g}{', --trace 1' if args.trace else ''}")
    for w in workloads:
        print(f"\n{w}")
        if args.trace:
            print(f"  {'per-layer metric':<30} {'base median [q1, q3]':>36}"
                  f" {'change median [q1, q3]':>36} {'delta':>8}")
            for m in metrics:
                base = [r[m["name"]]["value"] for r in values[(w, "base")]]
                change = [r[m["name"]]["value"] for r in values[(w, "change")]]
                print(layer_row(m["name"], m["unit"], base, change))
            continue
        print(f"  {'metric':<14} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}"
              f" {'delta':>8} {'won':>6}  verdict")
        for m in metrics:
            base = [r[m["name"]]["value"] for r in values[(w, "base")]]
            change = [r[m["name"]]["value"] for r in values[(w, "change")]]
            won = pairs_won(base, change, m["better"])
            print(f"  {m['name']:<14} {describe(base, m['unit']):>30}"
                  f" {describe(change, m['unit']):>30} {median_delta(base, change)}"
                  f" {won:>3}/{len(base):<2}  {verdict(base, change, m['better'], m['bound'])}")
    if incorrect:
        print(f"\n{incorrect} run(s) failed their output checks")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
