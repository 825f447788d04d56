"""latcheck benchmark: one workload, one seed, one result line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload, each in a fresh interpreter (worker.py), one
after another, until the next pass would end after S seconds; at least one
pass.  Every pass re-does set-up and the same timed phase on the same seeded
inputs.  With --trace 0 it reports the end-to-end metrics (CPU time at
reference speed as the median over passes, item percentiles over all items of
all passes) and then runs set-up-only passes until it has SETUP_SAMPLES
set-up times, whose median is setup_s; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics (medians over traced
passes) and the tracing overhead.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exits 2 without a result
when latcheck's sources are not next to the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
PASS_TIMEOUT_S = 170
SETUP_SAMPLES = 9


def run_pass(workload, seed, mode):
    """One worker pass; mode is plain, trace, plant or setup (see worker.py)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("LATCHECK_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), mode],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload, seed, seconds, trace):
    """Closed loop of passes; with trace, untraced and traced alternate and
    at least one of each runs."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(workload, seed, "trace" if traced else "plain")))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start
        if trace and len(passes) < 2:
            continue
        if elapsed + last > seconds:
            return passes


def setup_samples(workload, seed, passes):
    """Set-up times of the passes, topped up with set-up-only passes."""
    samples = [p for _, p in passes]
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_pass(workload, seed, "setup"))
    return samples


def end_to_end(passes, setups):
    items_ms = [t * 1e3 for _, p in passes for t in p["item_cpu_s"]]
    p90 = statistics.quantiles(items_ms, n=10)[-1]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "cpu_s": statistics.median(p["cpu_s"] for _, p in passes),
        "item_cpu_p50_ms": statistics.median(items_ms),
        "item_cpu_p90_ms": p90,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for _, p in passes),
    }
    # as measured, for reading the metrics above; not metrics themselves
    for name in ("cpu_raw_s", "wall_s", "speed_s"):
        metrics[name] = statistics.median(p[name] for _, p in passes)
    metrics["setup_raw_s"] = statistics.median(p["setup_raw_s"] for p in setups)
    notes = {"setup_s": f"n={len(setups)}",
             "item_cpu_p50_ms": f"n={len(items_ms)}",
             "item_cpu_p90_ms": f"n={len(items_ms)}, {sum(t > p90 for t in items_ms)} above"}
    return metrics, notes


def per_layer(passes):
    traced = [p["layers"] for t, p in passes if t]
    metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    cpu = {mode: statistics.median(p["cpu_s"] for t, p in passes if t == mode) for mode in (True, False)}
    metrics["trace.overhead_frac"] = cpu[True] / cpu[False] - 1
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latcheck", "__init__.py")):
        print(f"error: no latcheck sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        setups = [] if args.trace else setup_samples(args.workload, args.seed, passes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = {p["digest"] for _, p in passes} | {p["digest"] for p in setups}
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    values, notes = (per_layer(passes), {}) if args.trace else end_to_end(passes, setups)
    # report exactly the metrics BENCHMARK.json declares for this mode
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"input_digest={','.join(sorted(digests))} load=closed-loop,1-client,no-threads")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if not args.trace:
        for name in ("setup_raw_s", "cpu_raw_s", "wall_s", "speed_s"):
            print(f"  {name:<44} {values[name]:>14.6g} s      (as measured; not a metric)")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if args.trace:
        for name in tracing.INVARIANTS:
            print(f"  {name:<44} {values[name]:>14.6g}        (fixed by the inputs; not a metric)")
    for _, p in passes:
        for line in p["failures"]:
            print(f"  FAILED {line}")
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
