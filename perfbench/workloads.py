"""The four benchmark workloads: inputs from the seed, the job, and its gate.

Each workload has three parts.  ``setup`` builds everything a job needs
before it starts (the exact solution, the reference basis, seeded inputs);
``job`` is the timed unit of work and starts from a fresh ``BasisCache``,
as every command line run does; ``gate`` returns the list of reasons the
job's output is not a certified, correct solution (empty when it is).

Reference values come from ``reference.json`` next to this file; rerun
``record_reference.py`` after a change that is meant to move them.
"""

import copy
import json
import os

import numpy as np

from ddivfem import (
    BasisCache,
    Mesh,
    TensorField,
    build_reference_basis,
    convergence_study,
    get_example,
    interpolation_error_study,
    solve_example,
)
from ddivfem.mesh import EX1_CORNERS

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: relative tolerance on recorded error norms: far above rounding-order
#: changes (1e-13) and solver-tolerance effects (1e-8), far below any
#: change of the discrete solution
ERROR_RTOL = 1e-6

#: certified solver residual; the library default of solve_example
SOLVER_RTOL = 1e-10

#: conformity bound of the acceptance gate (criterion 6)
CONFORMITY_TOL = 1e-9

#: commuting residual bound, relative to 1 + ||div div M||
COMMUTING_TOL = 1e-9

#: band for the final interpolation order of a smooth field
INTERP_ORDER_BAND = (1.8, 2.2)

CONV_START, CONV_LEVELS = 1, 5
INTERP_LEVELS = range(0, 6)
INTERP_DEGREE = 3

#: the graded mesh has GRADED_CELLS x GRADED_CELLS cells; its knot spacings
#: are drawn from one of GRADED_VARIANTS recorded variants, chosen by the seed
GRADED_CELLS = 16
GRADED_VARIANTS = 8
GRADED_SPACING = (0.6, 1.4)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def plain_call(name, fn, *args, **kwargs):
    """Untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


def _rel_gap(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _check_errors(failures, label, got, want):
    for key, ref in want.items():
        val = got.get(key)
        if val is None or _rel_gap(val, ref) > ERROR_RTOL:
            failures.append("%s %s = %r is off the reference %r" % (label, key, val, ref))


# -- convergence studies -----------------------------------------------------------


class Convergence:
    """``convergence_study(problem, levels=5, start=1)`` with a fresh cache."""

    def __init__(self, name, problem):
        self.name = name
        self.problem = problem

    def setup(self, seed, call=plain_call):
        # the benchmark problems are fixed: the seed selects nothing here
        exact = call("problems.exact_setup", get_example, self.problem)
        return {"exact": exact, "basis": call("reference.basis", build_reference_basis)}

    def job(self, ctx, cache):
        return convergence_study(ctx["exact"], levels=CONV_LEVELS, start=CONV_START, cache=cache)

    def gate(self, ctx, report, reference):
        failures = []
        for key, verdict in report.band_check().items():
            if not verdict["pass"]:
                failures.append("band %s failed: %r" % (key, verdict))
        want = reference[self.name]
        levels = [row["level"] for row in report.rows]
        if levels != [int(lvl) for lvl in sorted(want, key=int)]:
            failures.append("levels %r do not match the reference" % levels)
        for row in report.rows:
            got = {"err_u": row["err_u"], "err_M": row["err_M"]}
            _check_errors(failures, "level %d" % row["level"], got, want.get(str(row["level"]), {}))
        return failures


# -- graded mesh -----------------------------------------------------------------


def graded_variant(seed):
    return int(seed) % GRADED_VARIANTS


def graded_knots(variant, n=GRADED_CELLS):
    """Two knot vectors on [0, 1] with random spacings, normalized."""
    rng = np.random.default_rng(variant)
    knots = []
    for _ in range(2):
        gaps = rng.uniform(*GRADED_SPACING, size=n)
        k = np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
        k[-1] = 1.0
        knots.append(k)
    return knots


def graded_mesh(s_knots, t_knots, corners=EX1_CORNERS):
    """Tensor-product mesh of the parallelogram through the given knots.

    Vertex (i, j) is c0 + s_i (c1 - c0) + t_j (c3 - c0), numbered as in
    ``make_parallelogram_domain``; every cell is a parallelogram, but no two
    share a shape unless their spacings coincide.
    """
    corners = np.asarray(corners, dtype=float)
    u = corners[1] - corners[0]
    w = corners[3] - corners[0]
    ns, nt = len(s_knots) - 1, len(t_knots) - 1
    ss, tt = np.meshgrid(s_knots, t_knots, indexing="ij")
    vertices = corners[0][None, :] + np.outer(ss.ravel(), u) + np.outer(tt.ravel(), w)
    cells = []
    for i in range(ns):
        for j in range(nt):
            v00 = i * (nt + 1) + j
            v10 = (i + 1) * (nt + 1) + j
            cells.append([v00, v10, v10 + 1, v00 + 1])
    return Mesh(vertices, np.array(cells))


class Graded:
    """The ex1 solution solved once on a graded 16 x 16 mesh."""

    name = "graded-ex1"

    def setup(self, seed, call=plain_call):
        variant = graded_variant(seed)
        s_knots, t_knots = graded_knots(variant)
        exact = copy.copy(call("problems.exact_setup", get_example, "ex1"))
        exact.mesh = lambda level: graded_mesh(s_knots, t_knots)
        basis = call("reference.basis", build_reference_basis)
        return {"exact": exact, "basis": basis, "variant": variant}

    def job(self, ctx, cache):
        # the level argument is ignored by the graded mesh factory
        return solve_example(ctx["exact"], 0, cache=cache, rtol=SOLVER_RTOL)

    def gate(self, ctx, run, reference):
        failures = []
        res = run["result"]
        if not res["solver"]["residual"] <= SOLVER_RTOL:
            failures.append("solver residual %r exceeds %g" % (res["solver"]["residual"], SOLVER_RTOL))
        conf = res["conformity"]["max_violation"]
        if not conf <= CONFORMITY_TOL:
            failures.append("conformity %r exceeds %g" % (conf, CONFORMITY_TOL))
        want = reference[self.name].get(str(ctx["variant"]))
        if want is None:
            failures.append("no reference for graded variant %d" % ctx["variant"])
        else:
            _check_errors(failures, "graded variant %d" % ctx["variant"], run["errors"], want)
        return failures


# -- interpolation -----------------------------------------------------------------


class InterpCommute:
    """``interpolation_error_study`` of a random degree-3 field, levels 0-5."""

    name = "interp-commute"
    levels = INTERP_LEVELS

    def setup(self, seed, call=plain_call):
        rng = np.random.default_rng(int(seed))
        # the exact data of this workload is the seeded random field
        field = call("problems.exact_setup", TensorField.random_poly, rng, deg=INTERP_DEGREE)
        return {"field": field}

    def job(self, ctx, cache):
        # interpolation_error_study makes its own BasisCache; ``cache`` is unused
        return interpolation_error_study(ctx["field"], self.levels)

    def gate(self, ctx, rows, reference):
        failures = []
        for level, _, _, _, commres, ddnorm in rows:
            if not commres <= COMMUTING_TOL * (1.0 + ddnorm):
                failures.append(
                    "level %d commuting residual %r exceeds %g * (1 + %r)"
                    % (level, commres, COMMUTING_TOL, ddnorm)
                )
        before, eoc = rows[-2][3], rows[-1][3]
        lo, hi = INTERP_ORDER_BAND
        # the h^3 term of a random bicubic field can still lift the order at
        # level 5 (2.27-2.40 for 3 of 60 seeds); above the band the orders
        # must then still be falling toward 2
        falling = eoc is not None and before is not None and hi < eoc < before
        if eoc is None or not (lo <= eoc <= hi or falling):
            failures.append(
                "final interpolation order %r (previous %r) is outside [%g, %g] and not falling"
                % (eoc, before, lo, hi)
            )
        return failures


WORKLOADS = {
    w.name: w
    for w in (Convergence("ex1-conv", "ex1"), Convergence("ex2-conv", "ex2"), Graded(), InterpCommute())
}


def fresh_cache(ctx):
    """An empty BasisCache sharing the set-up reference basis."""
    basis = ctx.get("basis")
    return BasisCache(basis) if basis is not None else None
