"""Run one benchmark workload of ddivfem and print its metrics.

    python3 perfbench/run.py --workload ex1-conv --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
child process (``worker.py``), one at a time, with BLAS/OpenMP threads
fixed at 1 and ddivfem imported from the checkout's ``src``.

``--trace 0`` runs the workload's job in a closed loop for ``--seconds``,
each job in a fresh process that first sets up, and reports ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` instead runs each job once
untraced and once traced, span by span, and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md in this directory.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fewest fresh-process set-ups timed per run; setup_s is their median
SETUP_SAMPLES = 3

#: every run ends within this many seconds, or fails
DEADLINE_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """A child process failed, so the run has no result."""


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode, args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError("%s child exceeded the %.0f s deadline" % (mode, DEADLINE_S)) from err
    if proc.returncode != 0:
        raise BenchError("%s child exited with code %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    """Versions, processor count, cache sizes and thread settings of the run."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = {}
        try:
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        caches["L%s %s" % (fields["level"], fields["type"])] = fields["size"]
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "caches": caches,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def tail_percentile(samples):
    """Highest of p99/p95/p90 with at least ten samples above it, else None."""
    ordered = sorted(samples)
    for p in (99, 95, 90):
        if len(ordered) * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(ordered, n=100)[p - 1]
    return None


def plain_run(args, deadline):
    # closed loop: each job in its own fresh process, as a command line run,
    # started while the last one's duration still fits into --seconds
    jobs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        jobs.append(run_child("job", args, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break
    setups = [job["setup_s"] for job in jobs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child("setup", args, deadline)["setup_s"])
    durations = [job["duration"] for job in jobs]
    failures = [job["failures"] for job in jobs]
    ok = [d for d, f in zip(durations, failures) if not f]
    wall = statistics.median(ok or durations)
    print("setup_s samples %s" % " ".join("%.4f" % s for s in setups))
    for i, (d, f) in enumerate(zip(durations, failures)):
        print("job %d: %.4f s %s" % (i + 1, d, "ok" if not f else "FAILED: " + "; ".join(f)))
    tail = tail_percentile(ok)
    print(
        "wall_s median %.4f s over %d jobs; %s"
        % (wall, len(ok), "p%d %.4f s" % tail if tail else "no tail percentile (fewer than 10 samples beyond p90)")
    )
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(job["peak_rss_mb"] for job in jobs), "unit": "MB"},
    }
    return len(durations), failures, metrics


def traced_run(args, deadline):
    out = run_child("trace", args, deadline)
    if not out["metrics"]:
        raise BenchError("no traced job completed")
    # one list of [name, parent index, start, end] spans per traced job
    print("spans " + json.dumps(out["spans"]))
    for name, m in sorted(out["metrics"].items()):
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    return len(out["failures"]), out["failures"], out["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ddivfem", "__init__.py")):
        print("no ddivfem sources under %s: run from the root of a checkout" % SRC, file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # children inherit the affinity; the highest-numbered CPU is usually the
    # one that serves the fewest interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        attempted, failures, metrics = (traced_run if args.trace else plain_run)(args, deadline)
    except BenchError as err:
        print("benchmark run failed: %s" % err, file=sys.stderr)
        return 1
    failed = sum(1 for f in failures if f)
    for f in failures:
        for msg in f:
            print("failure: " + msg)
    print("fail_rate %d/%d = %.4f" % (failed, attempted, failed / attempted))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
