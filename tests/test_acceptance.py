"""Acceptance gate: every advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion; each line also carries the measured number so a log of this
file is a complete scorecard of the library.
"""

import time

import numpy as np
import pytest

from ddivfem.interpolation import TensorField, commuting_residual, tensor_errors
from ddivfem.linsolve import solve_saddle
from ddivfem.mesh import EX1_CORNERS, make_lshape, make_parallelogram_domain
from ddivfem.piola import BasisCache
from ddivfem.problems import BANDS, corner_exponent, get_example
from ddivfem.reference import (
    build_reference_basis,
    divdiv_matrix,
    trace_degrees,
    verify_unisolvency,
)
from ddivfem.space import build_dof_map
from ddivfem.system import build_system


def _verdict(num, name, ok, detail):
    print("%s  criterion %2d  %-38s %s" % ("PASS" if ok else "FAIL", num, name, detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_01_unisolvency():
    t0 = time.perf_counter()
    basis = build_reference_basis()
    report = verify_unisolvency(basis, tol=1e-12)
    dt = time.perf_counter() - t0
    ok = report["ok"] and report["max_deviation"] <= 1e-12 and dt < 1.0
    _verdict(
        1,
        "unisolvency of the 20 dofs",
        ok,
        "max deviation %.1e in %.3f s" % (report["max_deviation"], dt),
    )


def test_criterion_02_divdiv_images():
    basis = build_reference_basis()
    dd = divdiv_matrix(basis)
    pinned = {0: (0.0, 0.0, 1.5), 3: (0.0, 1.5, 0.0), 8: (0.5, 0.0, -1.5)}
    exact = all(np.array_equal(dd[i], np.array(v)) for i, v in pinned.items())
    rank = np.linalg.matrix_rank(dd)
    degs = trace_degrees(basis)
    ok = exact and rank == 3 and max(degs) <= 1
    _verdict(
        2,
        "div div images linear and onto",
        ok,
        "pinned rows exact=%s rank=%d max edge trace degree=%d" % (exact, rank, max(degs)),
    )


def test_criterion_03_dimension_count():
    meshes = [make_parallelogram_domain(EX1_CORNERS, lvl) for lvl in range(4)]
    meshes += [make_lshape(lvl) for lvl in range(3)]
    worst = 0
    for mesh in meshes:
        dofmap = build_dof_map(mesh)
        predicted = 4 * mesh.num_edges + 4 * mesh.num_cells - len(mesh.interior_vertices)
        worst = max(worst, abs(dofmap.ndofs - predicted))
    _verdict(
        3,
        "dimension formula on %d meshes" % len(meshes),
        worst == 0,
        "max |count - formula| = %d" % worst,
    )


def test_criterion_04_commuting_projection(basis_cache):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    meshes = [
        make_parallelogram_domain(EX1_CORNERS, 3),
        make_lshape(2),
    ]
    worst = 0.0
    for mesh in meshes:
        dofmap = build_dof_map(mesh)
        for _ in range(5):
            field = TensorField.random_poly(rng, deg=3)
            res, ddnorm = commuting_residual(mesh, dofmap, field, cache=basis_cache)
            worst = max(worst, res / (1.0 + ddnorm))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    _verdict(
        4,
        "interpolation commutes with div div",
        ok,
        "worst scaled residual %.1e in %.2f s" % (worst, dt),
    )


def test_criterion_05_linear_tensor_reproduction(basis_cache):
    from ddivfem.interpolation import interpolate_ddiv
    from ddivfem.space import cell_coefficients

    rng = np.random.default_rng(7)
    worst = 0.0
    for mesh in (make_parallelogram_domain(EX1_CORNERS, 2), make_lshape(1)):
        dofmap = build_dof_map(mesh)
        for _ in range(3):
            comps = [rng.standard_normal((2, 2)) * [[1.0, 1.0], [1.0, 0.0]] for _ in range(3)]
            field = TensorField.from_grid(np.stack(comps, axis=-1))
            mcoef = interpolate_ddiv(mesh, dofmap, field)
            coeffs = cell_coefficients(mesh, dofmap, basis_cache, mcoef)
            errs = tensor_errors(mesh, basis_cache, coeffs, field)
            worst = max(worst, np.sqrt(errs["M"]))
    _verdict(
        5,
        "linear moment fields reproduced",
        worst <= 1e-11,
        "worst L2 interpolation error %.1e" % worst,
    )


def test_criterion_06_interface_conformity(ex1_report, ex2_report):
    worst = max(
        row["conformity"] for report in (ex1_report, ex2_report) for row in report.rows
    )
    _verdict(
        6,
        "normal-normal interface continuity",
        worst <= 1e-9,
        "worst solved-field interface mismatch %.1e" % worst,
    )


def test_criterion_07_polynomial_benchmark_rates(ex1_report):
    verdict = ex1_report.band_check()
    runtime = ex1_report.extras["runtime"]
    ok = all(v["pass"] for v in verdict.values()) and runtime < 300.0
    detail = " ".join(
        "%s=%.2f" % (key, verdict[key]["eoc"]) for key in ("u", "M", "ddiv", "div")
    )
    _verdict(7, "clamped parallelogram orders", ok, detail + " in %.0f s" % runtime)


def test_criterion_08_singular_benchmark_rates(ex2_report):
    verdict = ex2_report.band_check()
    ok = verdict["u"]["pass"] and verdict["M"]["pass"] and verdict["ddiv_Mh"]["pass"]
    _verdict(
        8,
        "reentrant corner orders",
        ok,
        "u=%.3f M=%.3f, div div M_h at roundoff=%s"
        % (verdict["u"]["eoc"], verdict["M"]["eoc"], verdict["ddiv_Mh"]["pass"]),
    )


def test_criterion_09_corner_constants():
    alpha, coeff = corner_exponent()
    ok = abs(alpha - 0.54448) <= 5e-6 and abs(coeff - 1.8414) <= 5e-5
    _verdict(
        9,
        "corner exponent and coefficient",
        ok,
        "alpha=%.6f (ref 0.54448) C=%.5f (ref 1.8414)" % (alpha, coeff),
    )


def test_criterion_10_solver_paths_agree(basis_cache):
    exact = get_example("ex1")
    mesh = exact.mesh(0)
    dofmap = build_dof_map(mesh)
    system = build_system(mesh, dofmap, exact.f, dirichlet=exact.dirichlet, cache=basis_cache)
    K, rhs = system.full()
    x_dense = np.linalg.solve(K.toarray(), rhs)
    x_sparse, info = solve_saddle(K, rhs)
    gap = np.abs(x_sparse - x_dense).max() / np.abs(x_dense).max()
    ok = info["path"] == "hybrid" and gap <= 1e-10
    _verdict(
        10,
        "sparse and dense solves agree",
        ok,
        "path=%s relative gap %.1e" % (info["path"], gap),
    )
