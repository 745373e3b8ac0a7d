#!/usr/bin/env python3
"""Bench regression guard: compare bench --json artifacts against recorded
baselines and fail the build when an optimized-config panel drops more than
the tolerance below its baseline.

Usage: check_regression.py <baselines.json> <artifact.json> [artifact2.json ...]

Multiple artifacts are shallow-merged (later files win on key collisions),
so baselines spanning several benchmarks — bench_optimizations panels plus
the bench_deployment fleet panel — are checked in one invocation.

Baseline entry forms (bench/baselines.json):
  "key": {"value": V}                 -- higher is better; fail when the
                                         measured value < V * (1 - tolerance)
  "key": {"value": V, "tolerance": T} -- the same with a per-key tolerance
  "key": {"ceiling": C}               -- smaller is better with an absolute
                                         bound; fail when measured > C
  "_tolerance": 0.15                  -- optional, default 15%

The benchmarks report virtual (simulated) time, so most numbers are exact
and stable across machines and runs: their baselines record the exact value
with a 0.1% tolerance, so a real regression cannot hide inside the blanket
15%. Keys whose value moves between runs of the same build (real-thread
interleavings reaching the virtual clock) keep the blanket tolerance, and
keys with large jitter (multi-client lanes) are simply not listed.

The artifact may also carry a nested "obs" object (the observability
plane's registry SnapshotJson, embedded by bench_optimizations): it is not
diffed against baselines, but it is sanity-checked — request-latency
histograms must be present and populated, and every histogram's quantiles
must be monotonic and bounded by its recorded max.
"""
import json
import sys


def check_obs(obs, failures) -> None:
    """Structural sanity for the embedded registry snapshot."""
    hists = obs.get("histograms", {})
    request_series = [k for k in hists if k.startswith("cntr_fuse_request_ns")]
    if not request_series:
        failures.append("obs: no cntr_fuse_request_ns histograms in snapshot")
        return
    if not any(hists[k].get("count", 0) > 0 for k in request_series):
        failures.append("obs: every request-latency histogram is empty "
                        "(tracing disabled during the traced run?)")
    for key in request_series:
        h = hists[key]
        p50, p95, p99 = h.get("p50", 0), h.get("p95", 0), h.get("p99", 0)
        if not p50 <= p95 <= p99:
            failures.append(
                f"obs {key}: quantiles not monotonic "
                f"(p50={p50} p95={p95} p99={p99})")
        if h.get("count", 0) > 0 and p99 > h.get("max", 0):
            failures.append(
                f"obs {key}: p99 {p99} exceeds recorded max {h.get('max', 0)}")


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        baselines = json.load(f)
    measured = {}
    for path in sys.argv[2:]:
        with open(path) as f:
            measured.update(json.load(f))

    tolerance = baselines.pop("_tolerance", 0.15)
    failures = []
    for key, spec in baselines.items():
        if key not in measured:
            failures.append(f"{key}: missing from artifact")
            continue
        got = measured[key]
        if "ceiling" in spec:
            if got > spec["ceiling"]:
                failures.append(
                    f"{key}: {got:.3f} exceeds ceiling {spec['ceiling']:.3f}")
            else:
                print(f"ok   {key}: {got:.3f} <= ceiling {spec['ceiling']:.3f}")
        else:
            tol = spec.get("tolerance", tolerance)
            floor = spec["value"] * (1 - tol)
            if got < floor:
                failures.append(
                    f"{key}: {got:.3f} dropped >{tol:.1%} below "
                    f"baseline {spec['value']:.3f} (floor {floor:.3f})")
            else:
                print(f"ok   {key}: {got:.3f} vs baseline {spec['value']:.3f}")

    if isinstance(measured.get("obs"), dict):
        check_obs(measured["obs"], failures)

    if failures:
        print("\nBENCH REGRESSIONS:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("\nall panels within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
