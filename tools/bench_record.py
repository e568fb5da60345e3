"""Record a BENCH_<n>.json: perfbench on a parent commit and on this checkout.

    python3 tools/bench_record.py --parent 3eaf060 --out BENCH_10.json

Run from the root of the changed checkout.  The parent commit is exported
into a temporary directory by ``tools/parent_checkout.py``, and the files
that git tracks in this checkout, as the working tree holds them, are
copied into another, so that neither side starts with a ``__pycache__`` or
other untracked file; stage new files before recording.  For every
workload and each of the seeds 1-10, ``perfbench/run.py --trace 0 --seconds
30`` runs once in each checkout, the two alternating and the side that goes first
switching from seed to seed; then ``--trace 1`` runs once per checkout with
the first seed.  Each checkout benchmarks its own ``src`` with its own
``perfbench``.  The file keeps the last JSON line of every run, the machine
description that ``run.py`` prints, and per workload and end-to-end metric
the summary of :func:`summarize`: both medians, the parent's quartile
distance, the pairs in which the change read better and a verdict.  The
workloads, the metrics, their bounds and which direction is better are
read from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from parent_checkout import parent_checkout, tree_checkout

#: ten alternating pairs per workload, the fewest that can show a gain
SEEDS = tuple(range(1, 11))
SECONDS = 30


def run(checkout, workload, seed, trace):
    """Last JSON line and the ``env`` line of one run.py call."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1])
    print("%s %s seed %d trace %d: correct=%s"
          % (checkout, workload, seed, trace, result["correct"]), flush=True)
    return result, env


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent, change, better, bound):
    """Medians, the parent's quartile distance and the verdict of one metric on one workload.

    ``parent`` and ``change`` hold the runs of the two sides, pair by pair;
    ``better`` is "lower" or "higher" and ``bound`` the share of the
    parent's median by which the change may be worse.  The verdict is
    ``gain`` when the change reads better in at least nine of ten pairs,
    ties counting for neither, and its median is better by more than the
    parent's quartile distance (IQR).  Otherwise it is ``unresolved`` when
    that IQR is wider than the bound times the parent's median, unless every
    run of the change reads better than every run of the parent;
    ``worse than bound`` when the change's median is worse by more than the
    bound; and ``within bound`` else.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    gain = sign * (p_med - c_med)
    if 10 * wins >= 9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif iqr > bound * abs(p_med) and not every_run_better:
        verdict = "unresolved"
    elif -gain > bound * abs(p_med):
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": iqr,
        "change_better": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def measure(sides, benchmark):
    record = {
        "schema_version": 1,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %d --trace T"
        % SECONDS,
        "seeds": list(SEEDS),
        "env": None,
        "untraced": {side: {} for side in sides},
        "traced": {side: {} for side in sides},
        "summary": {},
    }
    for w in [workload["name"] for workload in benchmark["workloads"]]:
        for side in sides:
            record["untraced"][side][w] = []
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, env = run(sides[side], w, seed, 0)
                record["env"] = record["env"] or env
                record["untraced"][side][w].append(
                    {"seed": seed, "correct": result["correct"], "metrics": values(result)}
                )
        for side in sides:
            result, _ = run(sides[side], w, SEEDS[0], 1)
            record["traced"][side][w] = {
                "seed": SEEDS[0], "correct": result["correct"], "metrics": values(result)
            }
        summary = record["summary"][w] = {}
        for metric in benchmark["end_to_end"]:
            p = [r["metrics"][metric["name"]] for r in record["untraced"]["parent"][w]]
            c = [r["metrics"][metric["name"]] for r in record["untraced"]["change"][w]]
            summary[metric["name"]] = summarize(p, c, metric["better"], metric["bound"])
        print(w, json.dumps(summary), flush=True)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare this checkout against")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    with parent_checkout(args.parent) as (commit, parent), tree_checkout() as change:
        record = measure({"parent": parent, "change": change}, benchmark)
    record["parent_commit"] = commit
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
