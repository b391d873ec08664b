#!/usr/bin/env python3
"""Steadiness check for the repository benchmark (see README.md).

Runs two interleaved sets of runs of the same checkout -- set A on seeds
1..N and set B on seeds 101..100+N, one run of each in turn, alternating
which goes first -- and prints, per workload and end-to-end metric, each
set's median and quartiles. It flags

  * a spread (q3 - q1) / median above the metric's bound; across seeds,
    so for the exact metrics it is seed variance, for host times seed
    variance plus host noise;
  * a set-B median worse than set A's by more than the bound;
  * a run with incorrect outputs or failed ops.

Then it runs the default seed (1) twice untraced -- every exact metric
(allocation, heap, simulated quantities) must read the same -- and once
traced, and a held-out seed no set used, untraced and traced.

Run it from the repository root:

    python3 perfbench/steadiness.py                      # 2 x 10 runs, every workload
    python3 perfbench/steadiness.py --runs 5 --workloads eager-2pc

The benchmark's own tests are a separate dune alias:

    dune build @perfbench/selftest

Exit status 1 if anything was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = {"alloc_words_per_op", "peak_heap_mb", "sim_resp_ms_p50", "sim_resp_ms_p99", "sim_abort_rate"}
HELD_OUT_SEED = 9001
SET_B_OFFSET = 100


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, out.stdout, wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0
    d = (b - a) / a
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--seconds", type=int, help="--seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    flags = []

    for name in names:
        sets = {"A": [], "B": []}
        walls = []
        for i in range(args.runs):
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = 1 + i + (SET_B_OFFSET if s == "B" else 0)
                result, _, wall = run(bench, name, seed, seconds, 0)
                walls.append(wall)
                sets[s].append((seed, result))
                if not result["correct"] or result["failed"]:
                    flags.append(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}")
        print(f"\n== {name}: 2 x {args.runs} runs of {seconds} s (wall per run {min(walls):.1f}-{max(walls):.1f} s)")
        print(f"{'metric':22} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in metrics:
            key = metric["name"]
            medians = {}
            for s in ("A", "B"):
                values = [r["metrics"][key]["value"] for _, r in sets[s]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians[s] = med
                mark = ""
                if spread > metric["bound"]:
                    mark = "  SPREAD > BOUND"
                    flags.append(f"{name}/{key} set {s}: spread {spread:.3f} > bound {metric['bound']}")
                elif spread > metric["bound"] / 3:
                    mark = "  (spread > bound/3)"
                print(f"{key:22} {s:3} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {metric['bound']:6}{mark}")
            shift = worse_by(metric, medians["A"], medians["B"])
            if shift > metric["bound"]:
                flags.append(f"{name}/{key}: set B median worse than set A's by {shift:.3f} > {metric['bound']}")

        untraced = []
        for seed, label, trace in ((1, "default seed", 0), (1, "default seed", 0), (1, "default seed", 1),
                                   (HELD_OUT_SEED, "held-out seed", 0), (HELD_OUT_SEED, "held-out seed", 1)):
            result, stdout, wall = run(bench, name, seed, seconds, trace)
            print(f"\n-- {name}, {label} {seed}, trace {trace} ({wall:.1f} s)")
            print("\n".join(stdout.strip().splitlines()[:-1]))
            if not result["correct"] or result["failed"]:
                flags.append(f"{name} seed {seed} trace {trace}: correct={result['correct']} failed={result['failed']}")
            if seed == 1 and trace == 0:
                untraced.append(result)
        for key in sorted(EXACT):
            if untraced[0]["metrics"][key]["value"] != untraced[1]["metrics"][key]["value"]:
                flags.append(f"{name}/{key}: two runs of seed 1 read differently")

    print()
    for f in flags:
        print("FLAG:", f)
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
