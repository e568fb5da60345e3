"""Child process of the benchmark: a set-up, a set-up and one job, or a traced run.

    python3 perfbench/worker.py {setup|job|trace} WORKLOAD SEED SECONDS

Prints one JSON object as the last line of its standard output.  run.py
starts it with BLAS/OpenMP threads fixed at 1 and the checkout's ``src`` on
PYTHONPATH; it refuses to measure a ddivfem imported from anywhere else.
Nothing but the standard library is imported before the set-up clock starts.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _last_error():
    return "raised " + traceback.format_exc().strip().splitlines()[-1]


def one_job(workloads, workload, ctx, cache):
    """Run and gate one job; an exception is a failed job, not a crash."""
    t0 = time.perf_counter()
    try:
        out = workload.job(ctx, cache)
        duration = time.perf_counter() - t0
        failures = workload.gate(ctx, out, workloads.load_reference())
    except Exception:
        duration = time.perf_counter() - t0
        traceback.print_exc()
        failures = [_last_error()]
    return {
        "duration": duration,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workloads, workload, seed, seconds):
    """Pairs of untraced and traced jobs, while the next pair should end within ``seconds``."""
    import tracing

    setup = tracing.Tracer()
    ctx = workload.setup(seed, call=setup.call)
    reference = workloads.load_reference()
    runs, spans, failures = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            metrics, job_spans, failed_plain, failed_traced = tracing.run_pair(
                workload, ctx, setup.spans, reference
            )
            runs.append(metrics)
            spans.append(job_spans)
            failures += [failed_plain, failed_traced]
        except Exception:
            traceback.print_exc()
            failures += [[_last_error()]] * 2
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    for key, value in (runs[0] if runs else {}).items():
        if isinstance(value, int) and any(r[key] != value for r in runs):
            failures[-1].append("count %s differs between traced jobs" % key)
    metrics = {
        key: {
            "value": value if isinstance(value, int) else statistics.median(r[key] for r in runs),
            "unit": tracing.unit(key),
        }
        for key, value in (runs[0] if runs else {}).items()
    }
    return {"failures": failures, "metrics": metrics, "spans": spans}


def main(argv):
    mode, name, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    start = time.perf_counter()
    import ddivfem

    if not os.path.abspath(ddivfem.__file__).startswith(SRC + os.sep):
        sys.exit("ddivfem was imported from %s, not from %s" % (ddivfem.__file__, SRC))
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit("unknown workload %r; choose from %s" % (name, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[name]
    if mode == "trace":
        return traced_run(workloads, workload, seed, seconds)
    ctx = workload.setup(seed)
    cache = workloads.fresh_cache(ctx)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        return {"setup_s": setup_s}
    out = one_job(workloads, workload, ctx, cache)
    out["setup_s"] = setup_s
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
