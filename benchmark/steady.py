#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload repeatedly and report,
for every end-to-end metric, the median, the quartiles, the interquartile
range as a share of the median, and the max/min spread.

    python3 benchmark/steady.py --workload race --runs 10

Run k (k = 1..runs) gets seed k. The command and the run length come from
BENCHMARK.json at the repository root, so this measures exactly what a
gate would. The last column is the bound this spread supports: three
times the quartile spread, rounded up to a whole percent, at least 5 % and
at most 25 %; `setup_s` always gets the largest bound. Run it from the
repository root.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def derived_bound(spread):
    return min(0.25, max(0.05, math.ceil(300.0 * spread) / 100.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = []
    for seed in range(1, args.runs + 1):
        res, wall = run_once(bench["command"], args.workload, seed, bench["run_seconds"])
        share = res["failed"] / res["attempted"]
        values = " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: {wall:6.1f} s, correct={res['correct']}, "
              f"attempted={res['attempted']}, failed={res['failed']} ({share:.6f}) {values}", flush=True)
        results.append(res)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed share per run: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  <-- NOT constant"))
    print(f"all correct: {all(r['correct'] for r in results)}\n")
    print(f"{'metric':<30} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min-1':>10} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        lo, hi = min(values), max(values)
        maxmin = hi / lo - 1.0 if lo > 0 else float("nan")
        bound = 0.25 if name == "setup_s" else derived_bound(spread)
        print(f"{name:<30} {unit:<8} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {maxmin:10.4f} {bound:6.2f}")


if __name__ == "__main__":
    main()
