"""Tests of the benchmark's own machinery: gates, counters and metric names.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def reference():
    return W.load_reference()


def _run(name, seed=0):
    w = W.WORKLOADS[name]
    ctx = w.setup(seed)
    return w, ctx, w.job(ctx, W.fresh_cache(ctx))


# -- gates: the real output passes, a perturbed copy fails --------------------------


def test_convergence_gate_rejects_perturbed_errors(reference):
    w, ctx, report = _run("ex1-conv")
    assert w.gate(ctx, report, reference) == []
    bad = copy.deepcopy(report)
    bad.rows[2]["err_M"] *= 1.0 + 1e-4
    assert any("err_M" in f for f in w.gate(ctx, bad, reference))
    bad = copy.deepcopy(report)
    bad.rows[-1]["eoc_u"] = 1.5
    assert any("band u" in f for f in w.gate(ctx, bad, reference))


def test_graded_gate_rejects_perturbed_results(reference):
    w, ctx, run = _run("graded-ex1", seed=3)
    assert w.gate(ctx, run, reference) == []
    for path, value in (
        (("errors", "u"), run["errors"]["u"] * (1.0 + 1e-4)),
        (("result", "conformity", "max_violation"), 1e-6),
        (("result", "solver", "residual"), 1e-8),
    ):
        bad = copy.deepcopy({k: run[k] for k in ("errors", "result")})
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert w.gate(ctx, bad, reference), path


def test_interpolation_gate_rejects_perturbed_rows(reference):
    w, ctx, rows = _run("interp-commute", seed=1)
    assert w.gate(ctx, rows, reference) == []
    level, h, err, eoc, commres, ddnorm = rows[2]
    bad = rows[:2] + [(level, h, err, eoc, 1e-6 * (1.0 + ddnorm), ddnorm)] + rows[3:]
    assert any("commuting" in f for f in w.gate(ctx, bad, reference))

    def final_orders(before, last):
        return rows[:-2] + [r[:3] + (o,) + r[4:] for r, o in zip(rows[-2:], (before, last))]

    # below the band, above it and rising: fail; above it and falling: pass
    assert any("order" in f for f in w.gate(ctx, final_orders(2.0, 1.7), reference))
    assert any("order" in f for f in w.gate(ctx, final_orders(2.3, 2.4), reference))
    assert w.gate(ctx, final_orders(2.6, 2.3), reference) == []


class _Stub:
    """Workload whose job raises or whose gate rejects, for the run loop."""

    def __init__(self, raises):
        self.raises = raises

    def job(self, ctx, cache):
        if self.raises:
            raise ValueError("job broke")
        return "output"

    def gate(self, ctx, out, reference):
        return ["perturbed output"]


@pytest.mark.parametrize("raises", [True, False])
def test_failed_jobs_are_counted_not_fatal(raises):
    out = worker.one_job(W, _Stub(raises), {}, None)
    assert out["duration"] >= 0.0
    assert out["failures"] == (["raised ValueError: job broke"] if raises else ["perturbed output"])


# -- traced decomposition: same numbers, repeatable counts ---------------------------


def _small_cases():
    conv = W.Convergence("ex2-conv", "ex2")
    conv_ctx = conv.setup(0)
    conv.job = lambda ctx, cache: W.convergence_study(ctx["exact"], levels=3, start=1, cache=cache)

    graded = W.WORKLOADS["graded-ex1"]
    graded_ctx = graded.setup(5)
    s_knots, t_knots = W.graded_knots(5, n=4)
    graded_ctx["exact"].mesh = lambda level: W.graded_mesh(s_knots, t_knots)

    interp = W.InterpCommute()
    interp.levels = range(0, 3)
    return [
        (tracing.pair_convergence, conv, conv_ctx),
        (tracing.pair_graded, graded, graded_ctx),
        (tracing.pair_interpolation, interp, interp.setup(2)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_traced_run_matches_untraced_and_counts_repeat(case):
    pair, w, ctx = _small_cases()[case]
    counts = []
    for _ in range(2):
        plain, traced, wall_plain, wall_traced, tracer, cache, mismatches = pair(w, ctx, [])
        assert mismatches == []
        metrics = tracing.layer_metrics(tracer, cache, wall_plain, wall_traced)
        counts.append({k: v for k, v in metrics.items() if tracing.unit(k) != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["mesh.cells"] > 0 and counts[0]["space.ndofs"] > 0
    assert counts[0]["piola.cache_misses"] > 0


def test_traced_solve_counts_fill_and_misses():
    pair, w, ctx = _small_cases()[1]
    *_, tracer, cache, mismatches = pair(w, ctx, [])
    metrics = tracing.layer_metrics(tracer, cache, 1.0, 1.0)
    # every cell of the graded mesh has its own shape
    assert metrics["piola.cache_misses"] == 16
    assert metrics["linsolve.lu_fill_nnz"] >= metrics["system.nnz_K"]
    own = tracer.self_times()
    assert all(t >= 0.0 for t in own.values())


# -- names and units agree with BENCHMARK.json ------------------------------------


def test_metric_names_and_units_match_the_spec():
    pair, w, ctx = _small_cases()[2]
    *_, tracer, cache, _ = pair(w, ctx, [])
    emitted = {k: tracing.unit(k) for k in tracing.layer_metrics(tracer, cache, 1.0, 1.0)}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_graded_mesh_cells_all_differ():
    mesh = W.graded_mesh(*W.graded_knots(0))
    v = mesh.vertices[mesh.cells]
    shapes = {tuple(np.round(np.r_[v[k, 1] - v[k, 0], v[k, 3] - v[k, 0]], 12)) for k in range(mesh.num_cells)}
    assert mesh.num_cells == W.GRADED_CELLS**2 == len(shapes)
