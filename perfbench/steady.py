#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload once per seed 1..N through run.py with the run length
from BENCHMARK.json, printing each run's result line, then prints, per
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles(values, n=4)) as
a share of the median, next to the metric's bound.

    python3 perfbench/steady.py --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print(f"{workload} seed {seed}: {lines[-1] if lines else ''}", flush=True)
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload} ({args.runs} seeds)")
        print(f"  {'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<40} {'missing' if not v else v[0]:>14}")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:<40} {med:>14.6g} {spread:>8.4f} {m['bound']:>6}{flag}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
