#!/usr/bin/env python3
"""Steadiness check: runs workloads k times each and judges the spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed N]

Run from the root of a checkout. Each of the workloads in BENCHMARK.json
runs --runs times for its run_seconds; run i uses seed first-seed + i,
and the workloads take turns, starting one further along the list on
each pass, so slow drift of the machine hits every workload alike. For
every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the interquartile
distance as a share of the median. It exits 1 when a run fails or when a
metric spreads wider than its bound in BENCHMARK.json; a spread above a
third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, took
    return json.loads(lines[-1]), took


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            result, took = run_once(w, seed, bench["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: FAILED run ({took:.0f} s)", flush=True)
                ok = False
                continue
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: {took:.0f} s, wall_s"
                  f" {result['metrics']['wall_s']['value']:.4g}", flush=True)

    print(f"\n{'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = ""
            if spread > bound:
                flag = "TOO NOISY"
                ok = False
            elif spread > bound / 3:
                flag = "above a third of the bound"
            print(f"{w:<14} {m:<18} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g}"
                  f" {spread:>8.4f} {bound:>6} {flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
