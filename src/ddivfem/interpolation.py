"""Canonical interpolation into the tensor space and elementwise projection.

The interpolation operator reads exactly the degrees of freedom off a given
tensor field: normal-normal and effective-shear moments on every edge (in
the global edge frames) and tangential-normal corner jumps in every cell.
Together with the elementwise L2 projection onto linears it closes the
commuting diagram

    div div (Pi M) = Pi1 (div div M)   elementwise,

which is what the tests in this module quantify.
"""

import numpy as np

from .polys import Poly2, gauss_rule
from .mesh import make_parallelogram_domain, EX1_CORNERS
from .piola import (
    BasisCache,
    element_map,
    push_components,
    push_divergence,
    _local_tangent,
)
from .space import build_dof_map, cell_coefficients

#: reference mass diagonal of the monomial basis {1, x, y} on [-1, 1]^2
P1_MASS_DIAG = np.array([4.0, 4.0 / 3.0, 4.0 / 3.0])


class TensorField:
    """A symmetric tensor field given by callables on physical coordinates.

    Parameters
    ----------
    m : callable
        ``m(x, y) -> (..., 3)`` with components (Mxx, Mxy, Myy).
    div : callable
        ``div(x, y) -> (..., 2)``, the row divergence; required by the
        effective-shear degrees of freedom.
    divdiv : callable, optional
        ``divdiv(x, y) -> (...)``; needed only for commuting-diagram checks.
    """

    def __init__(self, m, div, divdiv=None):
        self.m = m
        self.div = div
        self.divdiv = divdiv

    @staticmethod
    def from_polys(axx, axy, ayy):
        """Exact field from Poly2 components in physical coordinates."""
        wx = axx.dx() + axy.dy()
        wy = axy.dx() + ayy.dy()
        dd = wx.dx() + wy.dy()

        def m(x, y):
            return np.stack([axx.eval(x, y), axy.eval(x, y), ayy.eval(x, y)], axis=-1)

        def div(x, y):
            return np.stack([wx.eval(x, y), wy.eval(x, y)], axis=-1)

        def divdiv(x, y):
            return dd.eval(x, y)

        f = TensorField(m, div, divdiv)
        f.polys = (axx, axy, ayy)
        return f

    @staticmethod
    def random_poly(rng, deg=3, scale=1.0):
        """Random polynomial tensor of per-variable degree <= deg."""
        comps = [
            Poly2(scale * rng.standard_normal((deg + 1, deg + 1))) for _ in range(3)
        ]
        return TensorField.from_polys(*comps)


# -- degree of freedom extraction ---------------------------------------------


def field_edge_dofs(mesh, e, field, nq=6):
    """(m0, m1, q0, q1) of a tensor field on edge e, in the global frame."""
    a, b = mesh.edges[e]
    va, vb = mesh.vertices[a], mesh.vertices[b]
    vec = vb - va
    ln = np.linalg.norm(vec)
    t = vec / ln
    n = np.array([t[1], -t[0]])

    rule = gauss_rule(nq, dim=1)
    s, w = rule.points, rule.weights
    mid = 0.5 * (va + vb)
    x = mid[0] + 0.5 * s * vec[0]
    y = mid[1] + 0.5 * s * vec[1]

    mv = field.m(x, y)
    dv = field.div(x, y)
    nmn = n[0] * n[0] * mv[:, 0] + 2.0 * n[0] * n[1] * mv[:, 1] + n[1] * n[1] * mv[:, 2]
    tmn = (
        t[0] * n[0] * mv[:, 0]
        + (t[0] * n[1] + t[1] * n[0]) * mv[:, 1]
        + t[1] * n[1] * mv[:, 2]
    )
    ndiv = n[0] * dv[:, 0] + n[1] * dv[:, 1]

    def tmn_at(p):
        mv = field.m(p[0], p[1])
        return float(
            t[0] * n[0] * mv[0]
            + (t[0] * n[1] + t[1] * n[0]) * mv[1]
            + t[1] * n[1] * mv[2]
        )

    v_lo, v_hi = tmn_at(va), tmn_at(vb)
    half = 0.5 * ln
    m0 = np.sum(w * nmn) * half / ln
    m1 = np.sum(w * nmn * s) * half / ln
    q0 = np.sum(w * ndiv) * half + (v_hi - v_lo)
    q1 = np.sum(w * ndiv * s) * half + (v_hi + v_lo) - (2.0 / ln) * np.sum(w * tmn) * half
    return m0, m1, q0, q1


def field_cell_jump(mesh, k, c, field):
    """Corner jump of t.Mn of a field at local corner c of cell k."""
    from .piola import PhysicalDofFrame

    frame = PhysicalDofFrame(mesh, k)
    v = mesh.vertices[mesh.cells[k, c]]
    mv = field.m(v[0], v[1])
    A = np.array([[mv[0], mv[1]], [mv[1], mv[2]]])
    j_in, j_out = (c - 1) % 4, c
    t_in = _local_tangent(frame, j_in)
    t_out = _local_tangent(frame, j_out)
    n_in = np.array([t_in[1], -t_in[0]])
    n_out = np.array([t_out[1], -t_out[0]])
    return float(t_in @ A @ n_in - t_out @ A @ n_out)


def interpolate_ddiv(mesh, dofmap, field, nq=6):
    """Global coefficient vector of the canonical interpolant of a field.

    Edge moments are integrated with an ``nq``-point Gauss rule, corner
    jumps are point evaluations.  Jump dofs eliminated at interior vertices
    are implied; for fields with continuous components their patch sums
    vanish, so no information is lost.
    """
    x = np.zeros(dofmap.ndofs)
    for e in range(mesh.num_edges):
        m0, m1, q0, q1 = field_edge_dofs(mesh, e, field, nq=nq)
        base = 4 * e
        x[base : base + 4] = (m0, m1, q0, q1)
    for k in range(mesh.num_cells):
        for c in range(4):
            gid = dofmap.jump_id[(k, c)]
            if gid >= 0:
                x[gid] = field_cell_jump(mesh, k, c, field)
    return x


# -- elementwise projection onto linears ---------------------------------------


def project_p1(mesh, f, nq=6):
    """Elementwise L2 projection of a scalar function onto linears.

    Returns (ncells, 3) coefficients in the pulled-back monomial basis
    {1, xh, yh} of each cell.  Because the element maps are affine, the
    projection reduces to the diagonal reference mass matrix.
    """
    rule = gauss_rule(nq, dim=2)
    xh, yh = rule.points[:, 0], rule.points[:, 1]
    w = rule.weights
    out = np.zeros((mesh.num_cells, 3))
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        x, y = emap.apply(xh, yh)
        fv = f(x, y)
        out[k, 0] = np.sum(w * fv)
        out[k, 1] = np.sum(w * fv * xh)
        out[k, 2] = np.sum(w * fv * yh)
    return out / P1_MASS_DIAG[None, :]


def p1_eval(coeffs_k, xh, yh):
    """Values of a per-cell linear from its {1, xh, yh} coefficients."""
    return coeffs_k[0] + coeffs_k[1] * xh + coeffs_k[2] * yh


# -- error norms -----------------------------------------------------------------


def tensor_errors(mesh, cache, coeffs, field, nq=6, cell_orders=None):
    """Squared L2 errors of a piecewise tensor against an exact field.

    Parameters
    ----------
    coeffs : (ncells, 20) array
        Reference expansion coefficients per cell.
    cell_orders : (ncells,) int array, optional
        Per-cell quadrature order override (for cells near singular points).

    Returns
    -------
    dict with keys ``M``, ``div``, ``ddiv`` (those the field provides),
    holding sums of squared cellwise errors, plus matching ``norm_*`` keys
    with the squared norms of the exact field.
    """
    orders = np.full(mesh.num_cells, nq, dtype=int)
    if cell_orders is not None:
        orders = np.asarray(cell_orders, dtype=int)
    res = {"M": 0.0, "div": 0.0, "ddiv": 0.0, "norm_M": 0.0, "norm_div": 0.0, "norm_ddiv": 0.0}
    for k in range(mesh.num_cells):
        tab = cache.volume_tabulation(int(orders[k]))
        emap = element_map(mesh, k)
        x, y = emap.apply(tab.xh, tab.yh)
        w = tab.rule.weights * emap.det
        ck = coeffs[k]

        mref = np.tensordot(ck, tab.phi, axes=(0, 0))
        pxx, pxy, pyy = push_components(emap, mref[:, 0], mref[:, 1], mref[:, 2])
        ex = field.m(x, y)
        res["M"] += np.sum(w * ((pxx - ex[:, 0]) ** 2 + 2.0 * (pxy - ex[:, 1]) ** 2
                                + (pyy - ex[:, 2]) ** 2))
        res["norm_M"] += np.sum(w * (ex[:, 0] ** 2 + 2.0 * ex[:, 1] ** 2 + ex[:, 2] ** 2))

        if field.div is not None:
            dref = np.tensordot(ck, tab.divphi, axes=(0, 0))
            dx, dy = push_divergence(emap, dref[:, 0], dref[:, 1])
            exd = field.div(x, y)
            res["div"] += np.sum(w * ((dx - exd[:, 0]) ** 2 + (dy - exd[:, 1]) ** 2))
            res["norm_div"] += np.sum(w * (exd[:, 0] ** 2 + exd[:, 1] ** 2))

        if field.divdiv is not None:
            ddref = np.tensordot(ck, tab.ddphi, axes=(0, 0)) / emap.det
            exdd = field.divdiv(x, y)
            res["ddiv"] += np.sum(w * (ddref - exdd) ** 2)
            res["norm_ddiv"] += np.sum(w * exdd**2)
    return res


# -- commuting diagram ----------------------------------------------------------


def commuting_residual(mesh, dofmap, field, cache=None, nq=6):
    """L2 norm of div div (Pi M) - Pi1 (div div M) over the mesh.

    Both sides are elementwise linear, so the residual integrand is a
    quadratic polynomial per cell and a 2-point Gauss rule integrates it
    exactly.  Returns (absolute residual, norm of div div M).
    """
    if cache is None:
        cache = BasisCache()
    mcoef = interpolate_ddiv(mesh, dofmap, field, nq=nq)
    coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
    p1 = project_p1(mesh, field.divdiv, nq=nq)

    tab = cache.volume_tabulation(2)
    w = tab.rule.weights
    total = 0.0
    norm = 0.0
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        rhs = p1_eval(p1[k], tab.xh, tab.yh)
        diff = coeffs[k] @ tab.ddphi / emap.det - rhs
        total += emap.det * np.sum(w * diff**2)
        norm += emap.det * np.sum(w * rhs**2)
    return float(np.sqrt(total)), float(np.sqrt(norm))


# -- convergence of the interpolation error ------------------------------------


def interpolation_error_study(field, levels, corners=None, nq=6):
    """Interpolation errors and observed orders on a refined parallelogram.

    Returns a list of rows ``(level, h, err, eoc, commuting, ddnorm)``
    where the last two entries are the residual of the commuting identity
    on that mesh and the norm of div div M it is measured against; the
    first row has no order.  Errors below 1e-13 times the field norm are
    flagged with eoc ``None`` since rounding noise has no meaningful
    order.
    """
    if corners is None:
        corners = EX1_CORNERS
    cache = BasisCache()
    rows = []
    prev = None
    for lvl in levels:
        mesh = make_parallelogram_domain(corners, lvl)
        dofmap = build_dof_map(mesh)
        mcoef = interpolate_ddiv(mesh, dofmap, field, nq=nq)
        coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
        errs = tensor_errors(mesh, cache, coeffs, field, nq=nq)
        err = float(np.sqrt(errs["M"]))
        scale = float(np.sqrt(errs["norm_M"]))
        eoc = None
        if prev is not None and err > 1e-13 * max(scale, 1.0) and prev[1] > 0:
            eoc = float(np.log2(prev[1] / err))
        commres, ddnorm = commuting_residual(mesh, dofmap, field, cache=cache, nq=nq)
        rows.append((lvl, mesh.h, err, eoc, commres, ddnorm))
        prev = (lvl, err)
    return rows
