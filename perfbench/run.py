#!/usr/bin/env python3
"""Real-cost DEISA3 benchmark.

Builds the driver from the repository's sources into .bench_build, then
runs one workload in fresh processes for --seconds, checks every output,
and prints one JSON object as the last line of stdout:

    python3 perfbench/run.py --workload wide-monitor --seed 1 --seconds 30 --trace 0

--workload all runs every workload BENCHMARK.json lists, one report each.
--trace 0 reports the end-to-end metrics (medians over the untraced
processes, and for setup_s also over extra set-up-only processes);
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics (medians over the traced ones) plus the tracing overhead.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "deisa_perfbench"


def load_config():
    """Workload names and metric (name, unit) lists from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    cfg = json.loads(path.read_text())
    workloads = tuple(w["name"] for w in cfg["workloads"])
    end_to_end = tuple((m["name"], m["unit"]) for m in cfg["end_to_end"])
    per_layer = tuple((m["name"], m["unit"]) for m in cfg["per_layer"])
    return workloads, end_to_end, per_layer


# Measured only where the layer runs: heat2d-ipca alone has Heat2d ranks,
# filtered pushes and IPCA task bodies. Printed in the report, not gated.
HEAT2D_ONLY = (
    ("apps.heat2d_step_ms.p50", "ms"),
    ("core.filter_us.p50", "us"),
    ("ml.partial_fit_ms.p50", "ms"),
    ("array.slab_ms.p50", "ms"),
)

# heat2d-ipca's singular values and explained variance against the serial
# reference run (same inputs, same solver seed).
IPCA_RTOL = 1e-9
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 120
# Share of the measuring time spent in extra set-up-only processes, so that
# setup_s, a few milliseconds on some workloads, is a median over many
# samples.
SETUP_SHARE = 0.1


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "deisa_perfbench", "-j", "4"],
        check=True, stdout=log, stderr=log)


def run_driver(workload, seed, extra):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"driver exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def check_ipca(run, ref):
    """Count the singular values / explained variances off the reference."""
    wrong = 0
    for key in ("sv", "ev"):
        got, want = run[key], ref[key]
        if len(got) != len(want):
            wrong += 1
            continue
        wrong += sum(abs(g - w) > IPCA_RTOL * max(1.0, abs(w)) for g, w in zip(got, want))
    return wrong


def measure(workload, seed, seconds, trace, end_to_end, per_layer):
    """Run one workload for about `seconds`, print its report and JSON
    line, and return whether every output check passed."""
    heat2d = workload == "heat2d-ipca"
    ref = run_driver(workload, seed, ["--reference"]) if heat2d else None

    untraced, traced, setups = [], [], []
    full_s = setup_s = 0.0
    t_begin = time.monotonic()
    while True:
        use_trace = trace == 1 and len(traced) < len(untraced)
        extra = ["--trace", "1" if use_trace else "0"]
        if use_trace:
            extra += ["--trace-out", str(BUILD / f"spans-{workload}-{seed}.csv")]
        t0 = time.monotonic()
        (traced if use_trace else untraced).append(run_driver(workload, seed, extra))
        t1 = time.monotonic()
        full_s += t1 - t0
        while setup_s < SETUP_SHARE * full_s:
            setups.append(run_driver(workload, seed, ["--setup-only"]))
            setup_s += time.monotonic() - t1
            t1 = time.monotonic()
        enough = len(untraced) >= MIN_PROCESSES and (trace == 0 or len(traced) >= MIN_PROCESSES)
        # Stop when one more process of the last one's length would overrun.
        if enough and time.monotonic() + (t1 - t0) > t_begin + seconds:
            break

    runs = untraced + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if heat2d:
        failed += sum(check_ipca(r, ref) for r in runs)
    timer_fires = [r["timer_fires"] for r in runs + setups]
    correct = failed == 0 and all(t == 0 for t in timer_fires)

    def e2e(name):
        """One metric's values over the untraced processes; setup_s also
        over the set-up-only ones."""
        vals = [r["e2e"][name] for r in untraced]
        return vals + [r["setup_s"] for r in setups] if name == "setup_s" else vals

    first = runs[0]
    print(f"workload {workload}  seed {seed}  processes {len(untraced)} untraced"
          f" + {len(traced)} traced + {len(setups)} set-up only"
          f"  executor threads {first['threads']}  time_scale {first['time_scale']:g}")
    print(f"attempted {attempted}  failed {failed}  timer_fires max {max(timer_fires)}"
          f" over {len(timer_fires)} processes")
    if heat2d:
        print(f"reference: sv {ref['sv']}  ev {ref['ev']}  serial {ref['serial_s']:.3f} s")
    for name, unit in end_to_end:
        vals = e2e(name)
        print(f"  {name:<14} {median(vals):12.6f} {unit:<4} IQR {100 * spread(vals):5.2f}%"
              f"  n {len(vals):<3} runs {' '.join(f'{v:.4f}' for v in vals[:12])}"
              f"{' ...' if len(vals) > 12 else ''}")

    if trace == 0:
        metrics = {name: {"value": median(e2e(name)), "unit": unit}
                   for name, unit in end_to_end}
    else:
        def layer(name):
            if name == "trace.overhead_pct":
                t = median([r["e2e"]["makespan_s"] for r in traced])
                u = median([r["e2e"]["makespan_s"] for r in untraced])
                return 100.0 * (t / u - 1.0)
            if name == "ref.serial_s" and heat2d:
                return ref["serial_s"]
            return median([r["layers"][name] for r in traced])

        metrics = {name: {"value": layer(name), "unit": unit} for name, unit in per_layer}
        print("per-layer (median over traced processes):")
        for name, unit in per_layer:
            print(f"  {name:<30} {metrics[name]['value']:14.6f} {unit}")
        for name, unit in HEAT2D_ONLY:
            if heat2d:
                value = median([r["layers"][name] for r in traced])
                print(f"  {name:<30} {value:14.6f} {unit}")
            else:
                print(f"  {name:<30} {'absent':>14}  (no Heat2d ranks, filtered pushes"
                      " or IPCA tasks on this workload)")
        print("span self time (last traced process; self = span minus its children):")
        for row in traced[-1]["spans"]:
            print(f"  {row['name']:<24} n={row['count']:<7} total {row['total_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads, end_to_end, per_layer = load_config()
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists {', '.join(workloads)}")
    build()
    names = workloads if args.workload == "all" else (args.workload,)
    results = [measure(w, args.seed, args.seconds, args.trace, end_to_end, per_layer)
               for w in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
