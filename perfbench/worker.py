"""One pass of one workload in a fresh interpreter, so that no latcheck cache
(``enumeration._CACHE``, the ``freeterm`` memo tables, per-lattice caches)
survives from an earlier pass.

Usage: worker.py WORKLOAD SEED MODE

MODE is ``plain`` (untraced), ``trace`` (traced), ``plant`` (untraced, with
one wrong expectation planted in the checks) or ``setup`` (set-up only: the
pass stops before the timed phase).  Set-up time is this process's CPU time
at the end of set-up, so it counts interpreter start and imports.  CPU times
are reported as measured (``*_raw_s``) and at reference speed (see
speed.py).  Prints one JSON line.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

import latcheck  # noqa: E402

if not os.path.abspath(latcheck.__file__).startswith(SRC + os.sep):
    sys.exit(f"latcheck imported from {latcheck.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    setup, run, check = workloads.WORKLOADS[name]
    os.makedirs(WORKDIR, exist_ok=True)
    ctx = {"workdir": os.path.join(WORKDIR, name), "src": SRC,
           "child": os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")}
    os.makedirs(ctx["workdir"], exist_ok=True)
    inputs = setup(seed, ctx)
    setup_raw_s = time.process_time()
    for _ in range(speed.SAMPLES_AFTER_SETUP):
        speed.SPEED.sample()
    setup_s = setup_raw_s * speed.SPEED.scale()
    if mode == "setup":
        print(json.dumps({"digest": inputs["digest"], "setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    first, spent = len(speed.SPEED.samples), speed.SPEED.spent()
    speed.SPEED.start()
    c0, t0 = workloads.cpu_now(), time.perf_counter()
    result = run(inputs, tracer)
    wall_s = time.perf_counter() - t0
    cpu_raw_s = workloads.cpu_now() - c0 - (speed.SPEED.spent() - spent)
    speed.SPEED.stop()
    speed.SPEED.sample()  # so that the timed phase has at least one sample
    scale = speed.SPEED.scale(first)
    if tracer is not None:
        tracer.uninstall()
    # ru_maxrss is in KiB on Linux
    peak = result.get("peak_rss_mb") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, fails = check(inputs, result, mode == "plant")
    out = {
        "digest": inputs["digest"],
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "cpu_s": cpu_raw_s * scale,
        "cpu_raw_s": cpu_raw_s,
        "item_cpu_s": result["cpu"],
        "speed_s": speed.REFERENCE_S / scale,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": len(fails),
        "failures": fails.sample(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s, result["wall"])
        tracer.dump(os.path.join(WORKDIR, f"spans-{name}-seed{seed}.tsv.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
