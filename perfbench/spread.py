#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b] [--out runs.jsonl]

Runs perfbench/run.py once per seed on each workload, one run at a
time, and prints per metric the median and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. A spread at or above a third of its
bound is flagged. Every run's result line is appended to --out if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    failed = False
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took = time.monotonic() - start
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
                failed = True
                continue
            result = json.loads(last)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "took_s": took,
                                        "result": result}) + "\n")
            print(f"{workload} seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {workload:12s} {name:32s} median {med:14.6g}  spread {spread:8.4f}"
                  f"  bound {bound}{flag}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
