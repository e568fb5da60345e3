"""Spans and counters recorded from outside the library.

The traced run decomposes each job into the public calls the library makes
for it and wraps every call in a span named ``<layer>.<call>``, where the
layer is the ddivfem module that owns the function.  Spans stay in memory
and are summarized at the end of the run.  Counters are taken at the same
boundaries: a counting ``BasisCache`` subclass for the piola layer, matrix
sizes and a separate COLAMD factorization of the same saddle matrix for the
linear solver.  Nothing in the library is edited.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

import ddivfem.problems as problems
from ddivfem import (
    BasisCache,
    build_dof_map,
    build_reference_basis,
    cell_coefficients,
    check_conformity,
    commuting_residual,
    interpolate_ddiv,
    make_parallelogram_domain,
    solve_saddle,
    tensor_errors,
)
from ddivfem.mesh import EX1_CORNERS
from ddivfem.system import (
    DATA_QUAD_POINTS,
    SaddleSystem,
    assemble,
    dirichlet_load,
    neumann_constraints,
    source_load,
)

from workloads import SOLVER_RTOL

LAYERS = ("mesh", "reference", "piola", "space", "system", "linsolve", "interpolation", "problems")


class Tracer:
    """In-memory span recorder: (name, parent index, start, end) per span."""

    def __init__(self, spans=()):
        self.spans = [list(s) for s in spans]
        self._stack = []
        self.levels = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end):
        """Record a finished span under the currently open one."""
        self.spans.append([name, self._stack[-1] if self._stack else -1, start, end])

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def total(self, *names):
        return sum(s[3] - s[2] for s in self.spans if s[0] in names)

    def self_times(self):
        """Per layer: span durations minus the parts their child spans cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            layer = s[0].split(".")[0]
            if layer in out:
                out[layer] += t
        return out


class CountingBasisCache(BasisCache):
    """BasisCache that counts hits and misses and spans each miss."""

    def __init__(self, tracer, basis=None):
        super().__init__(basis)
        self.tracer = tracer
        self.hits = 0
        self.misses = 0

    def get(self, emap, frame):
        before = len(self)
        start = time.perf_counter()
        lb = super().get(emap, frame)
        if len(self) == before:
            self.hits += 1
        else:
            self.misses += 1
            self.tracer.add("piola.local_basis", start, time.perf_counter())
        return lb


def lu_fill(K):
    """nnz(L) + nnz(U) of the COLAMD factorization the sparse solver uses."""
    lu = spla.splu(K.tocsc(), permc_spec="COLAMD")
    return int(lu.L.nnz + lu.U.nnz)


def traced_solve(tracer, exact, level, cache, rtol=1e-10):
    """``solve_example`` as its sequence of public calls, each in a span.

    Returns the same dict as ``solve_example``; the benchmark checks that
    ``m``, ``u`` and the errors agree with it bit for bit.
    """
    with tracer.span("problems.solve_example"):
        mesh = tracer.call("mesh.build", exact.mesh, level)
        dofmap = tracer.call("space.dofmap", build_dof_map, mesh)
        A, B = tracer.call(
            "system.assemble", assemble, mesh, dofmap, material=exact.material, cache=cache
        )
        F = tracer.call("system.source_load", source_load, mesh, exact.f, nq=DATA_QUAD_POINTS)
        G = tracer.call(
            "system.dirichlet_load", dirichlet_load, mesh, dofmap, exact.dirichlet, nq=DATA_QUAD_POINTS
        )
        if exact.neumann is not None and len(mesh.neumann_edges()) > 0:
            L, d = tracer.call(
                "system.neumann_constraints",
                neumann_constraints,
                mesh,
                dofmap,
                exact.neumann,
                nq=DATA_QUAD_POINTS,
            )
        else:
            L, d = None, np.zeros(0)
        system = SaddleSystem(A, B, L, G, F, d, dofmap.ndofs, 3 * mesh.num_cells)
        K, rhs = tracer.call("system.full", system.full)
        x, info = tracer.call("linsolve.solve_saddle", solve_saddle, K, rhs, rtol=rtol)
        with tracer.span("trace.lu_probe"):
            fill = lu_fill(K)
        m = x[: system.ndofs]
        coeffs = tracer.call("space.cell_coefficients", cell_coefficients, mesh, dofmap, cache, m)
        conf = tracer.call("space.conformity", check_conformity, mesh, dofmap, coeffs, cache=cache)
        result = {
            "m": m,
            "u": x[system.ndofs : system.ndofs + system.nu].reshape(-1, 3),
            "lambda": x[system.ndofs + system.nu :],
            "solver": info,
            "conformity": conf,
            "ddiv_residual": float(np.linalg.norm(system.B @ m - system.F, np.inf)),
        }
        errors = tracer.call("problems.l2_errors", problems.l2_errors, mesh, dofmap, cache, result, exact)
    tracer.levels.append(
        {
            "cells": mesh.num_cells,
            "ndofs": dofmap.ndofs,
            "nnz_K": int(K.nnz),
            "lu_fill_nnz": fill,
            "refine_steps": int(info["refined"]),
        }
    )
    return {"mesh": mesh, "dofmap": dofmap, "system": system, "result": result, "errors": errors}


@contextmanager
def solve_example_replaced(replacement):
    """Let ``convergence_study`` call ``replacement`` for each level."""
    original = problems.solve_example
    problems.solve_example = replacement
    try:
        yield
    finally:
        problems.solve_example = original


def traced_interpolation_study(tracer, field, levels, nq=6):
    """``interpolation_error_study`` as its public calls, each in a span.

    Returns the same rows; the benchmark checks them bit for bit.
    """
    with tracer.span("interpolation.error_study"):
        basis = tracer.call("reference.basis", build_reference_basis)
        cache = CountingBasisCache(tracer, basis)
        rows = []
        prev = None
        for lvl in levels:
            mesh = tracer.call("mesh.build", make_parallelogram_domain, EX1_CORNERS, lvl)
            dofmap = tracer.call("space.dofmap", build_dof_map, mesh)
            mcoef = tracer.call("interpolation.interpolate", interpolate_ddiv, mesh, dofmap, field, nq=nq)
            coeffs = tracer.call("space.cell_coefficients", cell_coefficients, mesh, dofmap, cache, mcoef)
            errs = tracer.call("interpolation.tensor_errors", tensor_errors, mesh, cache, coeffs, field, nq=nq)
            err = float(np.sqrt(errs["M"]))
            scale = float(np.sqrt(errs["norm_M"]))
            eoc = None
            if prev is not None and err > 1e-13 * max(scale, 1.0) and prev[1] > 0:
                eoc = float(np.log2(prev[1] / err))
            commres, ddnorm = tracer.call(
                "interpolation.commuting", commuting_residual, mesh, dofmap, field, cache=cache, nq=nq
            )
            rows.append((lvl, mesh.h, err, eoc, commres, ddnorm))
            prev = (lvl, err)
            tracer.levels.append({"cells": mesh.num_cells, "ndofs": dofmap.ndofs})
    return rows, cache


def layer_metrics(tracer, cache, untraced_wall, traced_wall):
    """Per-layer metrics of one traced job, by their benchmark names."""
    last = tracer.levels[-1]
    fills = [lv["lu_fill_nnz"] for lv in tracer.levels if "lu_fill_nnz" in lv]
    lookups = cache.hits + cache.misses
    probe = tracer.total("trace.lu_probe")
    out = {
        "mesh.build_s": tracer.total("mesh.build"),
        "mesh.cells": last["cells"],
        "reference.basis_s": tracer.total("reference.basis"),
        "problems.exact_setup_s": tracer.total("problems.exact_setup"),
        "problems.l2_errors_s": tracer.total("problems.l2_errors"),
        "piola.basis_miss_s": tracer.total("piola.local_basis"),
        "piola.cache_misses": cache.misses,
        "piola.cache_hits": cache.hits,
        "piola.cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
        "space.dofmap_s": tracer.total("space.dofmap"),
        "space.cell_coefficients_s": tracer.total("space.cell_coefficients"),
        "space.conformity_s": tracer.total("space.conformity"),
        "space.ndofs": last["ndofs"],
        "system.assemble_s": tracer.total("system.assemble"),
        "system.loads_s": tracer.total("system.source_load", "system.dirichlet_load"),
        "system.neumann_s": tracer.total("system.neumann_constraints"),
        "system.full_s": tracer.total("system.full"),
        "system.nnz_K": last.get("nnz_K", 0),
        "linsolve.solve_saddle_s": tracer.total("linsolve.solve_saddle"),
        "linsolve.lu_fill_nnz": fills[-1] if fills else 0,
        # log2 of the fill ratio between the two finest levels; 0 without two solves
        "linsolve.fill_exponent": math.log2(fills[-1] / fills[-2]) if len(fills) > 1 else 0.0,
        "linsolve.refine_steps": sum(lv.get("refine_steps", 0) for lv in tracer.levels),
        "interpolation.interpolate_s": tracer.total("interpolation.interpolate"),
        "interpolation.tensor_errors_s": tracer.total("interpolation.tensor_errors"),
        "interpolation.commuting_s": tracer.total("interpolation.commuting"),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.lu_probe_s": probe,
        "trace.overhead_s": traced_wall - probe - untraced_wall,
        "trace.spans": len(tracer.spans),
    }
    for layer, t in tracer.self_times().items():
        out[layer + ".self_s"] = t
    return out


# -- one untraced and one traced job -------------------------------------------------


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _same_solves(plain, traced):
    """Mismatches between (m, u, errors) triples of two passes."""
    if len(plain) != len(traced):
        return ["%d untraced solves against %d traced" % (len(plain), len(traced))]
    out = []
    for i, ((m1, u1, e1), (m2, u2, e2)) in enumerate(zip(plain, traced)):
        if not (np.array_equal(m1, m2) and np.array_equal(u1, u2) and e1 == e2):
            out.append("solve %d: traced m, u or errors differ from solve_example" % i)
    return out


def _solve_triple(run):
    return run["result"]["m"], run["result"]["u"], run["errors"]


def pair_convergence(workload, ctx, setup_spans):
    """Untraced and traced ``convergence_study``; see ``run_pair``."""
    original = problems.solve_example
    plain, traced = [], []

    def recording(exact, level, cache=None, rtol=1e-10):
        run = original(exact, level, cache=cache, rtol=rtol)
        plain.append(_solve_triple(run))
        return run

    with solve_example_replaced(recording):
        out_plain, wall_plain = _timed(workload.job, ctx, BasisCache(ctx["basis"]))

    tracer = Tracer(setup_spans)
    cache = CountingBasisCache(tracer, ctx["basis"])

    def decomposed(exact, level, cache=None, rtol=1e-10):
        run = traced_solve(tracer, exact, level, cache, rtol)
        traced.append(_solve_triple(run))
        return run

    with solve_example_replaced(decomposed), tracer.span("problems.convergence_study"):
        out_traced, wall_traced = _timed(workload.job, ctx, cache)
    mismatches = _same_solves(plain, traced)
    if out_plain.rows != out_traced.rows:
        mismatches.append("traced convergence table differs")
    return out_plain, out_traced, wall_plain, wall_traced, tracer, cache, mismatches


def pair_graded(workload, ctx, setup_spans):
    """Untraced ``solve_example`` and its traced decomposition."""
    out_plain, wall_plain = _timed(workload.job, ctx, BasisCache(ctx["basis"]))
    tracer = Tracer(setup_spans)
    cache = CountingBasisCache(tracer, ctx["basis"])
    out_traced, wall_traced = _timed(traced_solve, tracer, ctx["exact"], 0, cache, SOLVER_RTOL)
    mismatches = _same_solves([_solve_triple(out_plain)], [_solve_triple(out_traced)])
    return out_plain, out_traced, wall_plain, wall_traced, tracer, cache, mismatches


def pair_interpolation(workload, ctx, setup_spans):
    """Untraced ``interpolation_error_study`` and its traced decomposition."""
    out_plain, wall_plain = _timed(workload.job, ctx, None)
    tracer = Tracer(setup_spans)
    (out_traced, cache), wall_traced = _timed(
        traced_interpolation_study, tracer, ctx["field"], workload.levels
    )
    mismatches = [] if out_plain == out_traced else ["traced interpolation rows differ"]
    return out_plain, out_traced, wall_plain, wall_traced, tracer, cache, mismatches


PAIRS = {
    "ex1-conv": pair_convergence,
    "ex2-conv": pair_convergence,
    "graded-ex1": pair_graded,
    "interp-commute": pair_interpolation,
}


def run_pair(workload, ctx, setup_spans, reference):
    """One untraced job, then the same job traced.

    Returns the per-layer metrics, the spans of the traced job, and the
    failure messages of the untraced and of the traced job.  Both outputs go
    through the workload's gate, and the traced one must equal the untraced
    one bit for bit.
    """
    plain, traced, wall_plain, wall_traced, tracer, cache, mismatches = PAIRS[workload.name](
        workload, ctx, setup_spans
    )
    failed_plain = workload.gate(ctx, plain, reference)
    failed_traced = mismatches + workload.gate(ctx, traced, reference)
    metrics = layer_metrics(tracer, cache, wall_plain, wall_traced)
    return metrics, tracer.spans, failed_plain, failed_traced


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    return {"piola.cache_hit_ratio": "ratio", "linsolve.fill_exponent": "log2"}.get(name, "count")
