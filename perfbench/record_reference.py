"""Record the reference error values that the workload gates compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a checkout, and only for a change that is meant to
move the computed errors; the gates hold every other change to them.
"""

import json

import workloads as W


def main():
    ref = {}
    for name in ("ex1-conv", "ex2-conv"):
        w = W.WORKLOADS[name]
        ctx = w.setup(0)
        report = w.job(ctx, W.fresh_cache(ctx))
        ref[name] = {
            str(row["level"]): {"err_u": row["err_u"], "err_M": row["err_M"]} for row in report.rows
        }
    graded = W.WORKLOADS["graded-ex1"]
    ref[graded.name] = {}
    for variant in range(W.GRADED_VARIANTS):
        ctx = graded.setup(variant)
        errors = graded.job(ctx, W.fresh_cache(ctx))["errors"]
        ref[graded.name][str(variant)] = {key: errors[key] for key in ("u", "M", "ddiv", "div")}
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
