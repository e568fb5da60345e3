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
from .piola import BasisCache, batch_geometry, edge_frames, normals
from .space import build_dof_map, cell_coefficients

#: reference mass diagonal of the monomial basis {1, x, y} on [-1, 1]^2
P1_MASS_DIAG = np.array([4.0, 4.0 / 3.0, 4.0 / 3.0])

#: weights of the squared components (xx, xy, yy) in the Frobenius product
FROBENIUS = np.array([1.0, 2.0, 1.0])


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


def _pair(t, n, mv):
    """t.M n for tensor components (xx, xy, yy) in the last axis of ``mv``."""
    return (
        t[..., 0] * n[..., 0] * mv[..., 0]
        + (t[..., 0] * n[..., 1] + t[..., 1] * n[..., 0]) * mv[..., 1]
        + t[..., 1] * n[..., 1] * mv[..., 2]
    )


def field_edge_dofs(mesh, e, field, nq=6):
    """(m0, m1, q0, q1) of a tensor field on edges ``e``, in the global frames.

    ``e`` is an edge index or an index array; each moment has its shape.
    """
    ends = mesh.vertices[mesh.edges[e]]
    return _edge_dofs(mesh, e, field, nq, field.m(ends[..., 0], ends[..., 1]))


def _edge_rule(mesh, e, nq):
    """An nq-point Gauss rule along edges ``e``, run from the lower to the higher vertex.

    Returns the nodes ``s`` and weights ``w`` on (-1, 1) and the points
    (..., nq, 2) at those nodes.
    """
    rule = gauss_rule(nq, dim=1)
    s = rule.points
    ends = mesh.vertices[mesh.edges[e]]
    va, vb = ends[..., 0, :], ends[..., 1, :]
    pts = 0.5 * (va + vb)[..., None, :] + 0.5 * s[:, None] * (vb - va)[..., None, :]
    return s, rule.weights, pts


def _edge_dofs(mesh, e, field, nq, m_ends):
    """:func:`field_edge_dofs` given the field at the edge ends, (..., 2, 3)."""
    t, ln = edge_frames(mesh, e)
    n = normals(t)
    s, w, pts = _edge_rule(mesh, e, nq)
    mv = field.m(pts[..., 0], pts[..., 1])
    dv = field.div(pts[..., 0], pts[..., 1])
    t_pts, n_pts = t[..., None, :], n[..., None, :]
    nmn = _pair(n_pts, n_pts, mv)
    tmn = _pair(t_pts, n_pts, mv)
    ndiv = n_pts[..., 0] * dv[..., 0] + n_pts[..., 1] * dv[..., 1]

    v_lo, v_hi = _pair(t, n, m_ends[..., 0, :]), _pair(t, n, m_ends[..., 1, :])
    half = 0.5 * ln
    m0 = (nmn @ w) * half / ln
    m1 = (nmn @ (w * s)) * half / ln
    q0 = (ndiv @ w) * half + (v_hi - v_lo)
    q1 = (ndiv @ (w * s)) * half + (v_hi + v_lo) - (2.0 / ln) * (tmn @ w) * half
    return m0, m1, q0, q1


def field_cell_jump(mesh, k, c, field):
    """Corner jump of t.Mn of a field at local corner ``c`` of cell ``k``.

    ``k`` and ``c`` are indices or index arrays of one shape.
    """
    v = mesh.vertices[mesh.cells[k, c]]
    return _corner_jumps(mesh, k, c, field.m(v[..., 0], v[..., 1]))


def _corner_jumps(mesh, k, c, mv):
    """:func:`field_cell_jump` given the field at the corners, (..., 3).

    The jump is t_in.M n_in - t_out.M n_out with the counterclockwise unit
    tangents of the edges entering and leaving the corner: the global
    tangents, flipped where the cell runs an edge backward.  It does not
    depend on the global edge orientation since t and n flip together.
    """

    def ccw_tangent(j):
        t, _ = edge_frames(mesh, mesh.cell_edges[k, j])
        return np.where(mesh.cell_edge_forward[k, j][..., None], t, -t)

    t_in, t_out = ccw_tangent((c - 1) % 4), ccw_tangent(c)
    return _pair(t_in, normals(t_in), mv) - _pair(t_out, normals(t_out), mv)


def interpolate_ddiv(mesh, dofmap, field, nq=6):
    """Global coefficient vector of the canonical interpolant of a field.

    Edge moments are integrated with an ``nq``-point Gauss rule, corner
    jumps are point evaluations.  Jump dofs eliminated at interior vertices
    are implied; for fields with continuous components their patch sums
    vanish, so no information is lost.
    """
    m_vert = field.m(mesh.vertices[:, 0], mesh.vertices[:, 1])
    edges = np.arange(mesh.num_edges)
    k, c = np.nonzero(dofmap.jump_id >= 0)
    x = np.zeros(dofmap.ndofs)
    x[: 4 * mesh.num_edges] = np.stack(
        _edge_dofs(mesh, edges, field, nq, m_vert[mesh.edges]), axis=-1
    ).ravel()
    x[dofmap.jump_id[k, c]] = _corner_jumps(mesh, k, c, m_vert[mesh.cells[k, c]])
    return x


# -- volume integrals over blocks of cells --------------------------------------

#: cells per block of a volume integral; bounds the (cells, points) temporaries
_BLOCK_CELLS = 256


def _cell_blocks(orders):
    """(order, cells) for blocks of cells sharing one quadrature order."""
    for q in np.unique(orders):
        cells = np.nonzero(orders == q)[0]
        for start in range(0, len(cells), _BLOCK_CELLS):
            yield int(q), cells[start : start + _BLOCK_CELLS]


def _map_cells(mesh, cells, xh, yh):
    """``B`` (n, 2, 2) and ``det`` of the element maps F(xh) = a + B xh of
    some cells, and the images ``x``, ``y`` (n, npts) of reference points.
    """
    g = batch_geometry(mesh, cells)
    B, a = g.B, g.a
    x = a[:, 0, None] + B[:, 0, 0, None] * xh + B[:, 0, 1, None] * yh
    y = a[:, 1, None] + B[:, 1, 0, None] * xh + B[:, 1, 1, None] * yh
    return B, g.det, x, y


def _push(B, mref):
    """Components (xx, xy, yy) of B Mh B^T, cell by cell, for Mh of shape (n, ..., 3).

    Dividing by det B completes the pushforward of :mod:`ddivfem.piola`.
    """
    M = mref[..., [0, 1, 1, 2]].reshape(mref.shape[:-1] + (2, 2))
    return np.einsum("kab,k...bc,kdc->k...ad", B, M, B)[..., [0, 0, 1], [0, 1, 1]]


# -- elementwise projection onto linears ---------------------------------------


def p1_moments(mesh, f, nq):
    """Reference moments of f against {1, xh, yh} per cell, and the determinants."""
    rule = gauss_rule(nq, dim=2)
    xh, yh = rule.points[:, 0], rule.points[:, 1]
    tests = rule.weights[:, None] * np.stack([np.ones_like(xh), xh, yh], axis=-1)
    moments = np.empty((mesh.num_cells, 3))
    det = np.empty(mesh.num_cells)
    for _, cells in _cell_blocks(np.full(mesh.num_cells, nq)):
        _, det[cells], x, y = _map_cells(mesh, cells, xh, yh)
        moments[cells] = np.broadcast_to(f(x, y), x.shape) @ tests
    return moments, det


def project_p1(mesh, f, nq=6):
    """Elementwise L2 projection of a scalar function onto linears.

    Returns (ncells, 3) coefficients in the pulled-back monomial basis
    {1, xh, yh} of each cell.  Because the element maps are affine, the
    projection reduces to the diagonal reference mass matrix.
    """
    return p1_moments(mesh, f, nq)[0] / P1_MASS_DIAG[None, :]


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
    for q, cells in _cell_blocks(orders):
        tab = cache.volume_tabulation(q)
        B, det, x, y = _map_cells(mesh, cells, tab.xh, tab.yh)
        w = tab.rule.weights * det[:, None]
        ck = coeffs[cells]

        pm = _push(B, np.einsum("ki,ipc->kpc", ck, tab.phi)) / det[:, None, None]
        ex = field.m(x, y)
        res["M"] += np.sum(w * ((pm - ex) ** 2 @ FROBENIUS))
        res["norm_M"] += np.sum(w * (ex**2 @ FROBENIUS))

        if field.div is not None:
            dref = np.einsum("ki,ipc->kpc", ck, tab.divphi)
            pd = np.einsum("kab,kpb->kpa", B, dref) / det[:, None, None]
            exd = field.div(x, y)
            res["div"] += np.sum(w * ((pd - exd) ** 2).sum(axis=-1))
            res["norm_div"] += np.sum(w * (exd**2).sum(axis=-1))

        if field.divdiv is not None:
            ddh = ck @ tab.ddphi / det[:, None]
            exdd = field.divdiv(x, y)
            res["ddiv"] += np.sum(w * (ddh - exdd) ** 2)
            res["norm_ddiv"] += np.sum(w * exdd**2)
    return res


def ddiv_gap(mesh, cache, coeffs, p1):
    """Squared L2 norms of div div M_h - p and of p over the mesh.

    ``p`` is elementwise linear with (ncells, 3) coefficients ``p1`` in the
    pulled-back {1, xh, yh} basis.  div div M_h is elementwise linear too,
    so the integrands are quadratic per cell and a 2-point Gauss rule
    integrates them exactly.
    """
    tab = cache.volume_tabulation(2)
    w = tab.rule.weights
    _, det, _, _ = _map_cells(mesh, np.arange(mesh.num_cells), tab.xh, tab.yh)
    rhs = p1 @ np.stack([np.ones_like(tab.xh), tab.xh, tab.yh])
    diff = coeffs @ tab.ddphi / det[:, None] - rhs
    return float(det @ (diff**2 @ w)), float(det @ (rhs**2 @ w))


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
    return _commuting_residual(mesh, cache, coeffs, field, nq)


def _commuting_residual(mesh, cache, coeffs, field, nq):
    """:func:`commuting_residual` of the interpolant's cell coefficients."""
    total, norm = ddiv_gap(mesh, cache, coeffs, project_p1(mesh, field.divdiv, nq=nq))
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
        commres, ddnorm = _commuting_residual(mesh, cache, coeffs, field, nq)
        rows.append((lvl, mesh.h, err, eoc, commres, ddnorm))
        prev = (lvl, err)
    return rows
