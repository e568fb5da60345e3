"""Exact solution oracles, convergence orders, and report serialization.

The exact fields of both benchmarks are hand-derived calculus, so every one
of them is cross-checked here against central finite differences of the
scalar deflection alone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cellspec
from cellspec import Poly2, SymTensorPoly
from ddivfem import problems
from ddivfem.piola import BasisCache
from ddivfem.problems import (
    BANDS,
    CSV_COLUMNS,
    ConfigurationError,
    ConvergenceReport,
    corner_exponent,
    _EX1_DEFLECTION,
    get_example,
    l2_errors,
    solve_example,
)

EX1_POINTS = [(0.0, 0.0), (0.3, -0.4), (-0.5, 0.2)]
EX2_POINTS = [(0.5, 0.5), (-0.6, 0.7), (0.8, -0.3)]


def fd_gradient(u, x, y, h=1e-6):
    return np.array(
        [(u(x + h, y) - u(x - h, y)) / (2 * h), (u(x, y + h) - u(x, y - h)) / (2 * h)]
    )


def fd_hessian(u, x, y, h=1e-4):
    uxx = (u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h**2
    uyy = (u(x, y + h) - 2 * u(x, y) + u(x, y - h)) / h**2
    uxy = (
        u(x + h, y + h) - u(x + h, y - h) - u(x - h, y + h) + u(x - h, y - h)
    ) / (4 * h**2)
    return np.array([uxx, uxy, uyy])


def fd_bilaplacian(u, x, y, h):
    def lap(px, py):
        return (
            u(px + h, py) + u(px - h, py) + u(px, py + h) + u(px, py - h) - 4 * u(px, py)
        ) / h**2

    return (lap(x + h, y) + lap(x - h, y) + lap(x, y + h) + lap(x, y - h) - 4 * lap(x, y)) / h**2


# -- polynomial benchmark -------------------------------------------------------


def test_polynomial_deflection_values():
    ex1 = get_example("ex1")
    assert ex1.u(0.0, 0.0) == 1.0
    # boundary edges of the sheared domain: x = +-1 and x - y = +-1
    for t in np.linspace(-1.0, 1.0, 9):
        for x, y in ((1.0, 1.0 + t), (-1.0, -1.0 + t), (t, t - 1.0), (t, t + 1.0)):
            assert abs(ex1.u(x, y)) < 1e-13
            assert np.abs(ex1.grad_u(x, y)).max() < 1e-13


def test_polynomial_load_matches_bilaplacian():
    # Richardson-extrapolated finite differences as the independent check of
    # the symbolic fourth derivatives
    ex1 = get_example("ex1")
    for x, y in EX1_POINTS:
        b1 = fd_bilaplacian(ex1.u, x, y, 1e-2)
        b2 = fd_bilaplacian(ex1.u, x, y, 5e-3)
        rich = (4.0 * b2 - b1) / 3.0
        assert rich == pytest.approx(ex1.f(x, y), rel=1e-6)


def test_polynomial_moments_are_the_hessian():
    ex1 = get_example("ex1")
    for x, y in EX1_POINTS:
        M = np.asarray(ex1.field.m(x, y))
        assert np.abs(M - fd_hessian(ex1.u, x, y)).max() < 1e-5 * (1.0 + np.abs(M).max())


def ex1_oracle():
    """The ex1 deflection, its gradient and moments from Poly2 products."""
    x, y = Poly2.x(), Poly2.y()
    a = x * x - 1.0
    b = (x - y) * (x - y) - 1.0
    u = a * a * b * b
    ux, uy = u.dx(), u.dy()
    hessian = cellspec.stack_grids([SymTensorPoly(ux.dx(), ux.dy(), uy.dy())])[:, :, 0]
    return u, ux, uy, cellspec.tensor_field(hessian)


def test_ex1_deflection_grid_is_the_product_of_its_factors():
    u = ex1_oracle()[0]
    assert np.array_equal(_EX1_DEFLECTION, u.c)


_POINTS = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)), elements=st.floats(-2, 2))


@settings(max_examples=40, deadline=None)
@given(points=_POINTS)
def test_ex1_fields_are_the_poly2_calculus(points):
    # bit for bit: the grids are integers and both evaluate the same trimmed grids
    x, y = points.T
    ex1 = get_example("ex1")
    u, ux, uy, field = ex1_oracle()
    want_grad = np.stack([ux.eval(x, y), uy.eval(x, y)], axis=-1)
    assert ex1.u(x, y).tobytes() == u.eval(x, y).tobytes()
    assert ex1.grad_u(x, y).tobytes() == want_grad.tobytes()
    assert ex1.f(x, y).tobytes() == field.divdiv(x, y).tobytes()
    for name in ("m", "div", "divdiv"):
        got, want = getattr(ex1.field, name)(x, y), getattr(field, name)(x, y)
        assert got.tobytes() == want.tobytes()


# -- singular benchmark ----------------------------------------------------------


def test_corner_exponent_values():
    alpha, C = corner_exponent()
    assert alpha == pytest.approx(0.54448, abs=5e-6)
    assert C == pytest.approx(1.8414, abs=5e-5)
    # the exponent is the root of the clamped determinant at half angle 3pi/4
    t0 = 0.75 * np.pi
    assert abs(np.sin(2 * alpha * t0) + alpha * np.sin(2 * t0)) < 1e-14


def test_singular_solution_is_clamped_on_the_notch():
    ex2 = get_example("ex2")
    for t in np.linspace(1e-3, 0.999, 7):
        for x, y in ((0.0, -t), (-t, 0.0)):
            assert abs(ex2.u(x, y)) < 1e-14
            assert np.abs(ex2.grad_u(x, y)).max() < 1e-14


def test_singular_gradient_and_hessian():
    ex2 = get_example("ex2")
    for x, y in EX2_POINTS:
        g = np.asarray(ex2.grad_u(x, y))
        assert np.abs(g - fd_gradient(ex2.u, x, y)).max() < 1e-8 * np.abs(g).max()
        M = np.asarray(ex2.field.m(x, y))
        assert np.abs(M - fd_hessian(ex2.u, x, y)).max() < 1e-6 * np.abs(M).max()


def test_singular_divergence_and_biharmonicity():
    ex2 = get_example("ex2")
    h = 1e-5

    def fd_div(x, y):
        mxp, mxm = np.asarray(ex2.field.m(x + h, y)), np.asarray(ex2.field.m(x - h, y))
        myp, mym = np.asarray(ex2.field.m(x, y + h)), np.asarray(ex2.field.m(x, y - h))
        dx, dy = (mxp - mxm) / (2 * h), (myp - mym) / (2 * h)
        return np.array([dx[0] + dy[1], dx[1] + dy[2]])

    for x, y in EX2_POINTS:
        d = np.asarray(ex2.field.div(x, y))
        assert np.abs(d - fd_div(x, y)).max() < 1e-8 * np.abs(d).max()
        # the deflection is biharmonic: the exact divergence is solenoidal
        dxp = np.asarray(ex2.field.div(x + h, y))
        dxm = np.asarray(ex2.field.div(x - h, y))
        dyp = np.asarray(ex2.field.div(x, y + h))
        dym = np.asarray(ex2.field.div(x, y - h))
        divdiv = (dxp[0] - dxm[0]) / (2 * h) + (dyp[1] - dym[1]) / (2 * h)
        assert abs(divdiv) < 1e-6 * (1.0 + np.abs(d).max())
        assert ex2.f(x, y) == 0.0


def closed_lshape_points():
    """Points of the closed L-shape without the corner: a lattice, rays from
    the corner down to r = 1e-6, and both notch edges with +0.0 and -0.0."""
    s = np.linspace(-1.0, 1.0, 21)
    x, y = (a.ravel() for a in np.meshgrid(s, s))
    keep = ((x >= 0.0) | (y >= 0.0)) & ((x != 0.0) | (y != 0.0))
    r = np.geomspace(1e-6, 1.0, 25)[:, None]
    phi = np.linspace(-0.5 * np.pi, np.pi, 13)
    t = r.ravel()
    zero = np.zeros_like(t)
    x = np.concatenate([x[keep], (r * np.cos(phi)).ravel(), -t, -t, zero, -zero])
    y = np.concatenate([y[keep], (r * np.sin(phi)).ravel(), zero, -zero, -t, -t])
    return x, y


def test_singular_fields_are_the_polar_calculus():
    # the complex potentials against the chain rules in r and phi; the k-th
    # derivative is measured against its size r^(1 + a - k) at the point,
    # since u and grad u vanish on the clamped notch edges
    ex2 = get_example("ex2")
    x, y = closed_lshape_points()
    r = np.hypot(x, y)
    polar = cellspec.corner_mode_fields(ex2.alpha, ex2.coeff)
    fields = (ex2.u, ex2.grad_u, ex2.field.m, ex2.field.div)
    for k, (got, want) in enumerate(zip(fields, polar)):
        diff = np.abs(got(x, y) - want(x, y)).reshape(len(x), -1).max(axis=1)
        assert np.all(diff <= 1e-13 * r ** (1.0 + ex2.alpha - k)), k


def test_unknown_problem_name():
    with pytest.raises(ConfigurationError):
        get_example("ex3")


# -- error measurement ---------------------------------------------------------


def test_error_integrals_stable_under_quadrature_order(monkeypatch):
    cache = BasisCache()
    examples = [get_example("ex1"), get_example("ex2")]
    runs = [(exact, solve_example(exact, 2, cache=cache)) for exact in examples]

    def errors(nq, nq_singular):
        monkeypatch.setattr(problems, "ERROR_QUAD_POINTS", nq)
        monkeypatch.setattr(problems, "SINGULAR_QUAD_POINTS", nq_singular)
        return [
            l2_errors(run["mesh"], run["dofmap"], cache, run["result"], exact) for exact, run in runs
        ]

    assert (problems.ERROR_QUAD_POINTS, problems.SINGULAR_QUAD_POINTS) == (6, 10)
    (e6, e6_ex2), (e8, e8_ex2) = errors(6, 10), errors(8, 12)
    for key in ("u", "M", "ddiv", "div"):
        # polynomial integrands: already exact at the default order
        assert e6[key] == pytest.approx(e8[key], rel=1e-12)

    e6, e8 = e6_ex2, e8_ex2
    assert e6["u"] == pytest.approx(e8["u"], rel=1e-6)
    # the moment integrand behaves like r^(2 alpha - 4) near the corner, so
    # raising the order there still moves the third digit; anything tighter
    # than a percent would be claiming accuracy the quadrature does not have
    assert e6["M"] == pytest.approx(e8["M"], rel=1e-2)
    assert e6["M"] != e8["M"]
    assert e6["ddiv"] is None and e6["div"] is None


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
def test_l2_errors_read_the_solve_coefficients(problem):
    # solve_problem hands its per-cell expansion on; a result without it
    # (as the traced benchmark builds) is expanded again, to the same bits
    cache = BasisCache()
    exact = get_example(problem)
    run = solve_example(exact, 2, cache=cache)
    result = run["result"]
    assert result["coeffs"].shape == (run["mesh"].num_cells, 20)
    bare = {key: value for key, value in result.items() if key != "coeffs"}
    got = l2_errors(run["mesh"], run["dofmap"], cache, result, exact)
    want = l2_errors(run["mesh"], run["dofmap"], cache, bare, exact)
    assert repr(got) == repr(want)
    assert got == run["errors"]
    # and the coefficients it carries are the ones measured
    zero = dict(result, coeffs=np.zeros_like(result["coeffs"]))
    assert l2_errors(run["mesh"], run["dofmap"], cache, zero, exact)["norm_Mh"] == 0.0


def test_solve_example_builds_one_geometry_record(geometry_builds):
    # the groups, the source load and the three error integrals all read the
    # mesh's one record
    run = solve_example(get_example("ex2"), 3)
    assert geometry_builds == [run["mesh"].num_cells]


# -- convergence orders -----------------------------------------------------------


def test_polynomial_benchmark_orders(ex1_report):
    verdict = ex1_report.band_check()
    assert set(verdict) == {"u", "M", "ddiv", "div"}
    for key, entry in verdict.items():
        lo, hi = BANDS["ex1"][key]
        assert entry["pass"], "eoc_%s = %r outside [%g, %g]" % (key, entry["eoc"], lo, hi)
    assert ex1_report.all_pass()


def test_polynomial_orders_settle_toward_their_limits(ex1_report):
    # the gap between the observed order and its limit shrinks level by level
    for key, limit in (("u", 2.0), ("M", 2.0), ("ddiv", 2.0), ("div", 1.0)):
        devs = [
            abs(row["eoc_" + key] - limit)
            for row in ex1_report.rows
            if row["level"] >= 3 and row.get("eoc_" + key) is not None
        ]
        assert len(devs) >= 3
        assert all(a > b for a, b in zip(devs[:-1], devs[1:])), (key, devs)


def test_singular_benchmark_orders(ex2_report):
    verdict = ex2_report.band_check()
    assert verdict["u"]["pass"], verdict["u"]
    assert verdict["M"]["pass"], verdict["M"]
    assert verdict["ddiv_Mh"]["pass"]
    # the moment order is the corner exponent, not a full power
    alpha = ex2_report.extras["alpha"]
    assert ex2_report.final_eoc("M") == pytest.approx(alpha, abs=0.1)


def test_moment_equilibrium_residual_is_roundoff(ex2_report):
    # zero load means div div M_h vanishes identically in the discrete space
    for row in ex2_report.rows:
        assert row["ddiv_Mh"] <= 1e-8 * (1.0 + row["norm_Mh"])
        assert row["conformity"] < 1e-9


# -- serialization ------------------------------------------------------------------


def test_csv_layout_and_blanks(ex2_report):
    text = ex2_report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(ex2_report.rows)
    for line, row in zip(lines[1:], ex2_report.rows):
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[CSV_COLUMNS.index("err_ddiv")] == ""
        assert cells[CSV_COLUMNS.index("err_div")] == ""
        # full-precision round trip
        assert float(cells[CSV_COLUMNS.index("err_u")]) == row["err_u"]
        assert float(cells[CSV_COLUMNS.index("err_M")]) == row["err_M"]
        assert int(cells[0]) == row["level"]


def test_csv_full_columns(ex1_report, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(ex1_report.to_csv())
    lines = path.read_text().strip().split("\n")
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert first["eoc_u"] == ""  # no previous level
    last = dict(zip(CSV_COLUMNS, lines[-1].split(",")))
    for col in CSV_COLUMNS:
        assert last[col] != ""
    assert float(last["err_div"]) == ex1_report.rows[-1]["err_div"]


def test_json_report(ex1_report, ex2_report, tmp_path):
    (tmp_path / "report.json").write_text(ex1_report.to_json())
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["problem"] == "ex1"
    assert payload["all_pass"] is True
    assert len(payload["rows"]) == len(ex1_report.rows)
    assert payload["rows"][-1]["err_u"] == ex1_report.rows[-1]["err_u"]
    assert (tmp_path / "report.json").read_text() == ex1_report.to_json()

    payload2 = json.loads(ex2_report.to_json())
    assert payload2["alpha"] == pytest.approx(0.54448, abs=5e-6)
    assert payload2["coeff"] == pytest.approx(1.8414, abs=5e-5)
    assert payload2["rows"][0]["err_ddiv"] is None
    assert payload2["bands"]["ddiv_Mh"]["pass"] is True


def test_report_helpers():
    rows = [
        {"level": 1, "nelem": 4, "h": 0.5, "err_u": 1.0, "eoc_u": None},
        {"level": 2, "nelem": 16, "h": 0.25, "err_u": 0.25, "eoc_u": 2.0},
    ]
    report = ConvergenceReport("ex1", rows)
    assert report.final_eoc("u") == 2.0
    assert report.final_eoc("div") is None
    table = report.table()
    assert "err_u" in table and table.count("\n") == 2
