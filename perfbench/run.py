#!/usr/bin/env python3
"""Run the setlab benchmark's workloads and print their metrics.

    python3 perfbench/run.py --workload codec --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # all four workloads, seed 0, run_seconds

Run from anywhere; the package is imported from src/ next to this directory.
Each run starts SETUP_SAMPLES fresh worker processes with BLAS pinned to one
thread. All but the last only set up (import setlab, build the inputs) so
that setup_s is a median; the last one then runs the workload for --seconds.
Each workload ends its output with one JSON line with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1. A record of each run, with the
environment it ran in, goes to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def _lines(proc, deadline):
    """Lines of the worker's standard output with the time each arrived."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise RunError("worker did not finish before the run deadline")
        if not select.select([fd], [], [], left)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        now = time.perf_counter()
        if not chunk:
            break
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield now, line.decode()
    if buf:
        yield time.perf_counter(), buf.decode()


def run_worker(args, workdir, deadline, probe, spans=None):
    """Start one worker; returns (setup seconds, import ms, result or None)."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--workdir", str(workdir),
    ]
    if probe:
        cmd.append("--probe")
    if spans:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        setup_s = import_ms = last = None
        for when, line in _lines(proc, deadline):
            if setup_s is None:
                if not line.startswith("ready "):
                    raise RunError(f"worker printed {line!r} before it was ready")
                setup_s, import_ms = when - start, float(line.split()[1])
            else:
                last = line
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise RunError(f"worker exited with code {code}")
    if probe:
        return setup_s, import_ms, None
    if last is None:
        raise RunError("worker printed no result")
    return setup_s, import_ms, json.loads(last)


def source_fingerprint():
    """git revision when the checkout has one, and a hash of src/ always."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_revision": revision, "src_sha256": digest.hexdigest()}


def run_workload(args, spec):
    """One workload: its workers, its record file and its printed lines."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups, imports = [], []
    try:
        for i in range(SETUP_SAMPLES - 1):
            setup_s, import_ms, _ = run_worker(args, workdir / f"probe{i}", deadline, probe=True)
            setups.append(setup_s)
            imports.append(import_ms)
        spans = OUT / f"{args.workload}-spans.npz" if args.trace else None
        setup_s, import_ms, result = run_worker(args, workdir / "run", deadline, False, spans)
        setups.append(setup_s)
        imports.append(import_ms)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(result["per_layer"], **{"setup.import_ms": statistics.median(imports)})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists others", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    unexpected = result["failed"] - result["fault"]
    line = {
        "correct": unexpected == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    source = source_fingerprint()
    record = {
        "args": vars(args),
        **source,
        "setup_samples_s": setups,
        "import_ms_samples": imports,
        "worker": result,
        "result": line,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {result['rounds']} rounds,"
          f" {result['attempted']} ops attempted, {result['failed']} failed"
          f" ({result['fault']} of them the known codec fault)")
    env = result["env"]
    blas = env["blas"] or {}
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']},"
          f" blas {blas.get('name')} {blas.get('version')}, {env['cpu_count']} cpus,"
          f" threads {','.join(f'{k}={v}' for k, v in env['threads'].items())},"
          f" git {source['git_revision']}, src sha256 {source['src_sha256'][:12]}")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "setlab" / "__init__.py").is_file():
        print(f"error: no setlab package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args, spec)
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": n}), spec) for n in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
