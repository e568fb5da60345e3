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
description that ``run.py`` prints, and per workload the medians of the
end-to-end metrics with the number of seeds on which the change read lower.
"""

import argparse
import json
import statistics
import subprocess
import sys

from parent_checkout import parent_checkout, tree_checkout

WORKLOADS = ("ex1-conv", "ex2-conv", "graded-ex1", "interp-commute")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
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


def measure(sides):
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
    for w in WORKLOADS:
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
        for metric in END_TO_END:
            p = [r["metrics"][metric] for r in record["untraced"]["parent"][w]]
            c = [r["metrics"][metric] for r in record["untraced"]["change"][w]]
            summary[metric] = {
                "parent_median": statistics.median(p),
                "change_median": statistics.median(c),
                "change_lower": sum(b < a for a, b in zip(p, c)),
                "pairs": len(p),
            }
        print(w, json.dumps(summary), flush=True)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare this checkout against")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with parent_checkout(args.parent) as (commit, parent), tree_checkout() as change:
        record = measure({"parent": parent, "change": change})
    record["parent_commit"] = commit
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
