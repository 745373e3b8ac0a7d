#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the repository's src/) into
.bench_build/perfbench under the checkout root, runs one workload and
passes its output through. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list; the run fails if the program printed any other set.
Traced runs also leave their spans in .bench_build/perfbench/spans/.
Exits non-zero, without a JSON line, when the build or the run fails or
an output did not match the seeded inputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "kernel.h")):
        log(f"no repository sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    if result["attempted"] < 1:
        return "no op attempted"
    want = declared_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    if not result["correct"]:
        return "outputs did not match the seeded inputs"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.self_test:
        return subprocess.run([BINARY, "--self-test"], timeout=RUN_TIMEOUT_S).returncode

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        for line in partial.splitlines():
            print("# " + line)
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    # A result line is printed only when it passed every check.
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        print("# " + lines[-1])
        return proc.returncode
    problem = check_result(lines[-1], args.trace)
    if problem:
        print("# " + lines[-1])
        log(problem)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
