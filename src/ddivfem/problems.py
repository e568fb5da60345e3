"""The two plate bending benchmarks and their convergence studies.

The first problem is a clamped sheared parallelogram with a polynomial
deflection; every right hand side and error integral is a polynomial, so
quadrature is exact and the discrete div div equation is satisfied to
rounding.  The second is the L-shaped domain with the leading corner
singularity of the clamped-free plate as exact solution, Re(conj(z) f + g)
of two complex potentials f and g, so that every exact field is one line in
their derivatives; its moment field is singular at the reentrant corner,
the load vanishes identically, and the moment error converges with the
fractional corner exponent.
"""

import json

import numpy as np

from .mesh import make_parallelogram_domain, make_lshape, EX1_CORNERS
from .piola import BasisCache, cell_blocks
from .space import build_dof_map, cell_coefficients
from .interpolation import TensorField, ddiv_gap, tensor_errors
from .reference import _derivative, grid_function
from .system import MaterialLaw, DirichletData, NeumannData, build_system, solve_problem

#: published five-digit values of the corner exponent and its coefficient,
#: used only to cross-check the computed ones
ALPHA_REFERENCE = 0.54448
COEFF_REFERENCE = 1.8414

#: Gauss rule order of the error integrals, and the order on the cells at
#: the singular vertex of a benchmark
ERROR_QUAD_POINTS = 6
SINGULAR_QUAD_POINTS = 10

#: convergence bands checked at the finest level pair
BANDS = {
    "ex1": {"u": (1.8, 2.2), "M": (1.8, 2.2), "ddiv": (1.8, 2.2), "div": (0.8, 1.2)},
    "ex2": {"u": (0.95, 1.25), "M": (0.45, 0.65)},
}


class ConfigurationError(RuntimeError):
    """Raised when a benchmark cannot be set up consistently."""


class ExactSolution:
    """Bundle of exact fields, data, and mesh family for one benchmark.

    Attributes
    ----------
    name : str
    field : TensorField
        The exact moment tensor with divergence (used for boundary data
        and interpolation).
    error_field : TensorField
        The variant used in error integrals; for the corner singularity the
        divergence is not square integrable and is left out.
    alpha, coeff : float or None
        The corner exponent and coefficient of :func:`corner_exponent`, or None.
    """

    def __init__(self, name, u, grad_u, f, field, error_field, mesh_factory,
                 dirichlet, neumann, material, singular_vertex=None, alpha=None, coeff=None):
        self.name = name
        self.u = u
        self.grad_u = grad_u
        self.f = f
        self.field = field
        self.error_field = error_field
        self.mesh = mesh_factory
        self.dirichlet = dirichlet
        self.neumann = neumann
        self.material = material
        self.singular_vertex = singular_vertex
        self.alpha = alpha
        self.coeff = coeff


#: coefficients c[i, j] of x**i y**j in the ex1 deflection
#: u = (x^2 - 1)^2 ((x - y)^2 - 1)^2
_EX1_DEFLECTION = np.array([
    [  1,   0,  -2,   0,   1],
    [  0,   4,   0,  -4,   0],
    [ -4,   0,  10,   0,  -2],
    [  0, -12,   0,   8,   0],
    [  6,   0, -14,   0,   1],
    [  0,  12,   0,  -4,   0],
    [ -4,   0,   6,   0,   0],
    [  0,  -4,   0,   0,   0],
    [  1,   0,   0,   0,   0],
], dtype=float)


def exact_example1():
    """Clamped sheared parallelogram with u = (x^2-1)^2 ((x-y)^2-1)^2.

    The domain is the image of the unit square under (s, t) -> (s, s + t),
    scaled to corners (-1,-2), (1,0), (1,2), (-1,0); the deflection and its
    gradient vanish on the whole boundary, so the clamped data is zero.
    The gradient, the moments (the Hessian of u) and the load f = div div
    of the moments are coefficient grids of u, all integers and so exact.
    """
    u = _EX1_DEFLECTION
    grad = np.stack([_derivative(u, 0), _derivative(u, 1)], axis=-1)
    hessian = np.stack(
        [_derivative(grad[..., 0], 0), _derivative(grad[..., 0], 1), _derivative(grad[..., 1], 1)],
        axis=-1,
    )
    field = TensorField.from_grid(hessian)
    u_eval, grad_eval = grid_function(u), grid_function(grad)

    return ExactSolution(
        name="ex1",
        u=u_eval,
        grad_u=grad_eval,
        f=field.divdiv,
        field=field,
        error_field=field,
        mesh_factory=lambda level: make_parallelogram_domain(EX1_CORNERS, level),
        dirichlet=DirichletData(u_eval, grad_eval),
        neumann=None,
        material=MaterialLaw(),
    )


def corner_exponent():
    """Leading exponent of the clamped-free corner expansion.

    Solves the determinant condition sin(2 a t0) + a sin(2 t0) = 0 of the
    clamped conditions at psi = +-t0 with opening half-angle t0 = 3 pi / 4,
    on (0, 1).  Returns (alpha, C) with C the coefficient of the second
    angular mode.
    """
    t0 = 0.75 * np.pi

    def det(a):
        return np.sin(2.0 * a * t0) + a * np.sin(2.0 * t0)

    grid = np.linspace(0.02, 0.98, 49)
    signs = np.sign(det(grid))
    change = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    if len(change) == 0:
        raise ConfigurationError("no corner exponent found in (0, 1)")
    lo, hi = grid[change[0]], grid[change[0] + 1]
    # bisection of the first bracket down to 1e-15
    lo_sign = signs[change[0]]
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if np.sign(det(mid)) == lo_sign:
            lo = mid
        else:
            hi = mid
    alpha = float(0.5 * (lo + hi))
    denom = np.cos((alpha - 1.0) * t0)
    if abs(denom) < 1e-12:
        raise ConfigurationError("degenerate angular mode coefficient")
    coeff = float(-np.cos((alpha + 1.0) * t0) / denom)
    return alpha, coeff


def exact_example2():
    """L-shaped domain with the leading corner singularity as solution.

    u = r^(1+a) (cos((a+1) psi) + C cos((a-1) psi)), psi measured from the
    bisector of the reentrant corner, is Goursat's biharmonic form
    u = Re(conj(z) f + g) with the potentials f = C e^(i pi/4) w^a and
    g = w^(1+a) of w = z e^(-i pi/4).  So the load is zero, and with ' the
    derivative in z, M = grad grad u has

        u_x - i u_y = conj(z) f' + conj(f) + g',
        M_xx + M_yy = 4 Re f',  M_xx - M_yy - 2i M_xy = 2 (conj(z) f'' + g''),
        div M = 4 (Re f'', -Im f'').

    On the closed L-shape arg w lies in [-3 pi/4, 3 pi/4], where the
    principal branch of w^a is continuous.  The two edges meeting at the
    corner are clamped (homogeneous Dirichlet), the rest of the boundary
    carries the exact moment/shear data.
    """
    alpha, C = corner_exponent()
    for digits, got, ref in ((5, alpha, ALPHA_REFERENCE), (4, C, COEFF_REFERENCE)):
        if abs(got - ref) > 0.5 * 10.0 ** (-digits):
            raise ConfigurationError(
                "computed corner constant %.6f is off the reference %.5f" % (got, ref)
            )
    # dw/dz, so each derivative in z brings one more factor e
    e = np.exp(-0.25j * np.pi)

    def potentials(px, py):
        """conj(z), f, f', f'', g, g', g'' at the points z = px + i py."""
        z = np.asarray(px, dtype=float) + 1j * np.asarray(py, dtype=float)
        w = z * e
        # |w|^a e^(i a arg w) is numpy's principal w**a, about 3 times faster
        wa = np.abs(w) ** alpha * np.exp(1j * alpha * np.angle(w))
        wa1 = wa / w
        f, fp, fpp = C / e * wa, C * alpha * wa1, C * alpha * (alpha - 1.0) * e * wa1 / w
        g, gp, gpp = w * wa, (1.0 + alpha) * e * wa, (1.0 + alpha) * alpha * e * e * wa1
        return np.conj(z), f, fp, fpp, g, gp, gpp

    def u_eval(px, py):
        zc, f, _, _, g, _, _ = potentials(px, py)
        return np.real(zc * f + g)

    def grad_eval(px, py):
        zc, f, fp, _, _, gp, _ = potentials(px, py)
        d = zc * fp + np.conj(f) + gp
        return np.stack([d.real, -d.imag], axis=-1)

    def hess_eval(px, py):
        zc, _, fp, fpp, _, _, gpp = potentials(px, py)
        trace, dev = 2.0 * fp.real, zc * fpp + gpp
        return np.stack([trace + dev.real, -dev.imag, trace - dev.real], axis=-1)

    def div_eval(px, py):
        fpp = potentials(px, py)[3]
        return np.stack([4.0 * fpp.real, -4.0 * fpp.imag], axis=-1)

    def zero_eval(px, py):
        return np.zeros(np.broadcast(np.asarray(px), np.asarray(py)).shape)

    field = TensorField(hess_eval, div_eval, zero_eval)
    error_field = TensorField(hess_eval, None, None)

    def grad_zero(px, py):
        return np.zeros(np.broadcast(np.asarray(px), np.asarray(py)).shape + (2,))

    return ExactSolution(
        name="ex2",
        u=u_eval,
        grad_u=grad_eval,
        f=zero_eval,
        field=field,
        error_field=error_field,
        mesh_factory=make_lshape,
        dirichlet=DirichletData(zero_eval, grad_zero),
        neumann=NeumannData(field),
        material=MaterialLaw(),
        singular_vertex=(0.0, 0.0),
        alpha=alpha,
        coeff=C,
    )


def get_example(name):
    if name == "ex1":
        return exact_example1()
    if name == "ex2":
        return exact_example2()
    raise ConfigurationError("unknown problem %r" % name)


# -- errors ---------------------------------------------------------------------


def quadrature_orders(mesh, exact):
    """Per-cell orders, raised on cells touching the singular vertex."""
    orders = np.full(mesh.num_cells, ERROR_QUAD_POINTS, dtype=int)
    if exact.singular_vertex is not None:
        sx, sy = exact.singular_vertex
        at = np.nonzero(
            (mesh.vertices[:, 0] == sx) & (mesh.vertices[:, 1] == sy)
        )[0]
        orders[np.isin(mesh.cells, at).any(axis=1)] = SINGULAR_QUAD_POINTS
    return orders


def ddiv_norm(mesh, cache, coeffs):
    """L2 norm of div div M_h of a piecewise field from its coefficients."""
    return float(np.sqrt(ddiv_gap(mesh, cache, coeffs, np.zeros((mesh.num_cells, 3)))[0]))


def l2_errors(mesh, dofmap, cache, result, exact):
    """Deflection, moment, div div and divergence errors of a solution.

    Returns a dict with the available error norms; entries whose exact
    counterpart is not square integrable are set to None.  Also reports the
    norms of M_h and div div M_h for relative bounds.  The per-cell
    expansion of ``result["m"]`` is read from ``result["coeffs"]`` when the
    result carries it, as :func:`ddivfem.system.solve_problem`'s does.
    """
    orders = quadrature_orders(mesh, exact)
    coeffs = result.get("coeffs")
    if coeffs is None:
        coeffs = cell_coefficients(mesh, dofmap, cache, result["m"])
    errs = tensor_errors(mesh, cache, coeffs, exact.error_field, nq=orders)

    err_u2 = 0.0
    for q, cells in cell_blocks(orders):
        tab = cache.volume_tabulation(q)
        block = mesh.geometry.rows(cells)
        x, y = block.points(tab.xh, tab.yh)
        w = tab.rule.weights * block.det[:, None]
        uh = result["u"][cells] @ np.stack([np.ones_like(tab.xh), tab.xh, tab.yh])
        err_u2 += np.sum(w * (uh - exact.u(x, y)) ** 2)

    out = {
        "u": float(np.sqrt(err_u2)),
        "M": float(np.sqrt(errs["M"])),
        "ddiv": float(np.sqrt(errs["ddiv"])) if exact.error_field.divdiv else None,
        "div": float(np.sqrt(errs["div"])) if exact.error_field.div else None,
        "norm_Mh": float(np.sqrt(errs["norm_Mh"])),
        "ddiv_Mh": ddiv_norm(mesh, cache, coeffs),
    }
    return out


def solve_example(exact, level, cache=None, rtol=1e-10):
    """Mesh, solve, and measure one benchmark at one refinement level."""
    if cache is None:
        cache = BasisCache()
    mesh = exact.mesh(level)
    dofmap = build_dof_map(mesh)
    system = build_system(
        mesh,
        dofmap,
        exact.f,
        material=exact.material,
        dirichlet=exact.dirichlet,
        neumann=exact.neumann,
        cache=cache,
    )
    result = solve_problem(mesh, dofmap, system, rtol=rtol)
    errors = l2_errors(mesh, dofmap, cache, result, exact)
    return {
        "mesh": mesh,
        "dofmap": dofmap,
        "system": system,
        "result": result,
        "errors": errors,
    }


# -- convergence report -----------------------------------------------------------


def _eoc(prev, cur):
    if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
        return None
    return float(np.log2(prev / cur))


CSV_COLUMNS = [
    "level",
    "nelem",
    "h",
    "err_u",
    "eoc_u",
    "err_M",
    "eoc_M",
    "err_ddiv",
    "eoc_ddiv",
    "err_div",
    "eoc_div",
]


class ConvergenceReport:
    """Error table of a benchmark over a range of levels.

    Rows are dicts keyed by the CSV column names; unavailable quantities
    (for the singular benchmark the div div and divergence errors, which
    the reference tables also omit) are None and serialize to empty fields.
    """

    def __init__(self, problem, rows, extras=None):
        self.problem = problem
        self.rows = rows
        self.extras = extras or {}

    def final_eoc(self, key):
        for row in reversed(self.rows):
            if row.get("eoc_" + key) is not None:
                return row["eoc_" + key]
        return None

    def band_check(self):
        """Dict of band verdicts for this problem's monitored orders."""
        bands = BANDS[self.problem]
        verdict = {}
        for key, (lo, hi) in bands.items():
            got = self.final_eoc(key)
            verdict[key] = {
                "eoc": got,
                "band": [lo, hi],
                "pass": bool(got is not None and lo <= got <= hi),
            }
        if self.problem == "ex2":
            ok = True
            for row in self.rows:
                bound = 1e-8 * (1.0 + row["norm_Mh"])
                if row["ddiv_Mh"] > bound:
                    ok = False
            verdict["ddiv_Mh"] = {"pass": ok}
        return verdict

    def all_pass(self):
        return all(v["pass"] for v in self.band_check().values())

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in CSV_COLUMNS:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif col in ("level", "nelem"):
                    cells.append("%d" % v)
                else:
                    cells.append("%.17g" % v)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "schema_version": 1,
            "problem": self.problem,
            "levels": [row["level"] for row in self.rows],
            "rows": [
                {k: row.get(k) for k in CSV_COLUMNS + ["norm_Mh", "ddiv_Mh"]}
                for row in self.rows
            ],
            "bands": self.band_check(),
            "all_pass": self.all_pass(),
        }
        payload.update(self.extras)
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self):
        """Aligned text table for terminal output."""
        hdr = "%5s %7s %10s" % ("level", "nelem", "h")
        for key in ("u", "M", "ddiv", "div"):
            hdr += " %12s %6s" % ("err_" + key, "eoc")
        lines = [hdr]
        for row in self.rows:
            line = "%5d %7d %10.4e" % (row["level"], row["nelem"], row["h"])
            for key in ("u", "M", "ddiv", "div"):
                err, eoc = row.get("err_" + key), row.get("eoc_" + key)
                line += " %12s %6s" % (
                    "-" if err is None else "%.4e" % err,
                    "-" if eoc is None else "%.2f" % eoc,
                )
            lines.append(line)
        return "\n".join(lines)


def convergence_study(problem, levels=5, start=1, cache=None, rtol=1e-10):
    """Solve a benchmark on levels start..levels and tabulate the errors."""
    exact = get_example(problem) if isinstance(problem, str) else problem
    if cache is None:
        cache = BasisCache()
    rows = []
    prev = {}
    for level in range(start, levels + 1):
        run = solve_example(exact, level, cache=cache, rtol=rtol)
        errs = run["errors"]
        mesh = run["mesh"]
        row = {"level": level, "nelem": mesh.num_cells, "h": mesh.h}
        for key in ("u", "M", "ddiv", "div"):
            row["err_" + key] = errs[key]
            row["eoc_" + key] = _eoc(prev.get(key), errs[key])
        row["norm_Mh"], row["ddiv_Mh"] = errs["norm_Mh"], errs["ddiv_Mh"]
        row["conformity"] = run["result"]["conformity"]["max_violation"]
        rows.append(row)
        prev = errs
    extras = {} if exact.alpha is None else {"alpha": exact.alpha, "coeff": exact.coeff}
    return ConvergenceReport(exact.name, rows, extras=extras)
