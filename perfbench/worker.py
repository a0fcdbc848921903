"""One benchmark process: import setlab, set up a workload, run whole rounds.

run.py starts this process and times its set-up from process start to the
"ready" line printed below. A probe (--probe) stops there; otherwise the
process runs rounds until --seconds have passed (and the workload's minimum
number of rounds is done) and prints its result as one JSON line.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def environment():
    """What a result depends on besides the code: versions, BLAS, threads, CPUs."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import setlab

    import_ms = (time.perf_counter() - t0) * 1e3
    where = os.path.dirname(os.path.dirname(os.path.abspath(setlab.__file__)))
    if where != os.path.abspath(args.src):
        print(f"setlab was imported from {where}, not from {args.src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print(f"ready {import_ms!r}", flush=True)
    if args.probe:
        workload.close()
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(len(rounds)))
        if time.perf_counter() - start >= args.seconds and len(rounds) >= workload.min_rounds:
            break
    workload.close()

    ops_per_s = statistics.median(r.attempted / r.busy_s for r in rounds)
    result = {
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "fault": sum(r.fault for r in rounds),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_ms": import_ms,
        "round_busy_s": [r.busy_s for r in rounds],
        "round_attempted": [r.attempted for r in rounds],
        "round_failed": [r.failed for r in rounds],
        "problems": sorted({p for r in rounds for p in r.problems})[:20],
        "env": environment(),
    }
    check_s = {}
    if rounds[0].check_s:
        check_s = {name: statistics.median(r.check_s[name] for r in rounds) for name in rounds[0].check_s}
        result["check_s"] = check_s
    if tracer is not None:
        totals = tracer.layer_totals()
        result["per_layer"] = tracing.per_layer_metrics(totals, len(rounds), check_s, ops_per_s)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
