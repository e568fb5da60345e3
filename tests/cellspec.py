"""One-cell statement of the element map, the pushforward and the physical dofs.

The library builds these for whole meshes at once
(:func:`ddivfem.piola.batch_geometry`, :func:`ddivfem.piola.dof_matrices`).
This module writes the same maps and functionals out for one cell at a time,
in the form the :mod:`ddivfem.piola` docstring states them, and the tests
use it as the specification that the batched layer is checked against.

It also tabulates a reference basis one shape function at a time, through
:meth:`SymTensorPoly.eval`, ``div`` and ``divdiv``, as the specification
of the library's tabulations from stacked coefficient grids
(:func:`ddivfem.reference.coefficient_grids`).
"""

import numpy as np

from ddivfem.piola import (
    EDGE_QUAD_POINTS,
    CellGeometry,
    _edge_param_points,
    _reference_edge_points,
)
from ddivfem.polys import Poly2, gauss_rule
from ddivfem.reference import CORNERS, EDGE_CORNERS, SymTensorPoly


class ElementMap:
    """Affine map F(xh) = a + B xh from [-1, 1]^2 onto one cell."""

    def __init__(self, B, a):
        self.B = np.asarray(B, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.det = float(np.linalg.det(self.B))

    def apply(self, xh, yh):
        """Map reference coordinates to physical coordinates."""
        x = self.a[0] + self.B[0, 0] * xh + self.B[0, 1] * yh
        y = self.a[1] + self.B[1, 0] * xh + self.B[1, 1] * yh
        return x, y


def element_map(mesh, k):
    """ElementMap of cell k, with its corners as images of the reference corners."""
    v = mesh.vertices[mesh.cells[k]]
    B = 0.5 * np.column_stack([v[1] - v[0], v[3] - v[0]])
    return ElementMap(B, 0.5 * (v[0] + v[2]))


class PhysicalDofFrame:
    """Edge frames of one cell in global orientation.

    Attributes
    ----------
    tangents, normals : (4, 2)
        Global unit frames of the local edges (tangent from the lower to the
        higher vertex index, normal the tangent rotated by -90 degrees).
    lengths : (4,)
    forward : (4,) bool
        Whether the local counterclockwise traversal agrees with the global
        edge direction.
    """

    def __init__(self, mesh, k):
        self.forward = mesh.cell_edge_forward[k].copy()
        ends = mesh.vertices[mesh.edges[mesh.cell_edges[k]]]
        vec = ends[:, 1] - ends[:, 0]
        self.lengths = np.linalg.norm(vec, axis=-1)
        self.tangents = vec / self.lengths[:, None]
        self.normals = np.column_stack([self.tangents[:, 1], -self.tangents[:, 0]])

    def local_tangent(self, j):
        """Unit tangent of local edge j in counterclockwise traversal."""
        t = self.tangents[j]
        return t if self.forward[j] else -t


def cell_geometry(mesh, k):
    """(ElementMap, PhysicalDofFrame) of cell k."""
    return element_map(mesh, k), PhysicalDofFrame(mesh, k)


def one_cell_geometry(mesh, k):
    """The n = 1 CellGeometry of cell k, built from its ElementMap and frame."""
    emap, frame = cell_geometry(mesh, k)
    return CellGeometry(
        emap.B[None], emap.a[None], np.array([emap.det]), frame.tangents[None],
        frame.lengths[None], frame.forward[None],
    )


def cell_key(mesh, k):
    """The BasisCache key of cell k, from its one-cell geometry."""
    return tuple(one_cell_geometry(mesh, k).keys()[0])


def push_components(emap, mxx, mxy, myy):
    """Components of B Mh B^T / det B for arrays of reference components."""
    B = emap.B
    b11, b12, b21, b22 = B[0, 0], B[0, 1], B[1, 0], B[1, 1]
    d = emap.det
    pxx = (b11 * b11 * mxx + 2.0 * b11 * b12 * mxy + b12 * b12 * myy) / d
    pxy = (b11 * b21 * mxx + (b11 * b22 + b12 * b21) * mxy + b12 * b22 * myy) / d
    pyy = (b21 * b21 * mxx + 2.0 * b21 * b22 * mxy + b22 * b22 * myy) / d
    return pxx, pxy, pyy


def push_divergence(emap, wx, wy):
    """Components of B (divh Mh) / det B."""
    B, d = emap.B, emap.det
    return (B[0, 0] * wx + B[0, 1] * wy) / d, (B[1, 0] * wx + B[1, 1] * wy) / d


def push_tensor(emap, M, xh, yh):
    """Physical 2x2 tensor value of the pushed SymTensorPoly at (xh, yh)."""
    vals = M.eval(xh, yh)
    pxx, pxy, pyy = push_components(emap, vals[..., 0], vals[..., 1], vals[..., 2])
    return np.stack(
        [np.stack([pxx, pxy], axis=-1), np.stack([pxy, pyy], axis=-1)], axis=-2
    )


def physical_dofs(emap, frame, M, nq=EDGE_QUAD_POINTS):
    """The 20 physical degrees of freedom of the pushed tensor H_K(M).

    M is a SymTensorPoly on the reference square.  Edge moments are taken in
    the global frames of ``frame`` and divided by edge length; the shear
    moments use the integration-by-parts form of the piola docstring.
    Corner jumps are taken in the cell-local counterclockwise frames.
    """
    s, w = _edge_param_points(nq)
    wx_p, wy_p = M.div()
    dofs = np.zeros(20)

    for j in range(4):
        xh, yh = _reference_edge_points(j, s)
        vals = M.eval(xh, yh)
        pxx, pxy, pyy = push_components(emap, vals[:, 0], vals[:, 1], vals[:, 2])
        dvx, dvy = push_divergence(emap, wx_p.eval(xh, yh), wy_p.eval(xh, yh))

        t = frame.tangents[j]
        n = frame.normals[j]
        ln = frame.lengths[j]
        nmn = n[0] * n[0] * pxx + 2.0 * n[0] * n[1] * pxy + n[1] * n[1] * pyy
        tmn = t[0] * n[0] * pxx + (t[0] * n[1] + t[1] * n[0]) * pxy + t[1] * n[1] * pyy
        ndiv = n[0] * dvx + n[1] * dvy

        # global Legendre parameter along the edge: +-s depending on direction
        lg = s if frame.forward[j] else -s
        # physical arclength element: |e|/2 per unit of s
        half = 0.5 * ln

        # endpoint values of t.Mn in global orientation
        c0, c1 = EDGE_CORNERS[j]
        ends = []
        for c in (c0, c1):
            A = push_tensor(emap, M, CORNERS[c][0], CORNERS[c][1])
            ends.append(float(t @ A @ n))
        if frame.forward[j]:
            v_lo, v_hi = ends
        else:
            v_hi, v_lo = ends

        dofs[j] = np.sum(w * nmn) * half / ln
        dofs[4 + j] = np.sum(w * nmn * lg) * half / ln
        dofs[8 + j] = np.sum(w * ndiv) * half + (v_hi - v_lo)
        dofs[12 + j] = (
            np.sum(w * ndiv * lg) * half
            + (v_hi + v_lo)
            - (2.0 / ln) * np.sum(w * tmn) * half
        )

    for c in range(4):
        A = push_tensor(emap, M, CORNERS[c][0], CORNERS[c][1])
        t_in = frame.local_tangent((c - 1) % 4)
        t_out = frame.local_tangent(c)
        n_in = np.array([t_in[1], -t_in[0]])
        n_out = np.array([t_out[1], -t_out[0]])
        dofs[16 + c] = float(t_in @ A @ n_in - t_out @ A @ n_out)
    return dofs


def cell_dof_matrix(mesh, k, basis, nq=EDGE_QUAD_POINTS):
    """T (20, 20) of cell k: column i holds the physical dofs of basis function i."""
    emap, frame = cell_geometry(mesh, k)
    return np.column_stack([physical_dofs(emap, frame, phi, nq=nq) for phi in basis])


# -- reference tabulations, one shape function at a time ------------------------


def corrupted_basis(basis, i=7):
    """A copy of a basis whose i-th tensor gains x^2 y in its xx component.

    The monomial lies outside every component mask, but its div div (2y)
    stays linear.
    """
    bad = list(basis)
    bump = np.zeros((3, 2))
    bump[2, 1] = 0.25
    phi = bad[i - 1]
    bad[i - 1] = SymTensorPoly(phi.axx + Poly2(bump), phi.axy, phi.ayy)
    return bad


def edge_tabulation(basis, nq):
    """``(val0, val1, div0, div1, ends)`` of :class:`ddivfem.piola.EdgeTabulation`."""
    s, w = _edge_param_points(nq)
    nb = len(basis)
    val0 = np.zeros((nb, 4, 3))
    val1 = np.zeros((nb, 4, 3))
    div0 = np.zeros((nb, 4, 2))
    div1 = np.zeros((nb, 4, 2))
    corners = np.zeros((nb, 4, 3))
    for i, phi in enumerate(basis):
        wx, wy = phi.div()
        for j in range(4):
            xh, yh = _reference_edge_points(j, s)
            vals = phi.eval(xh, yh)
            divs = np.stack([wx.eval(xh, yh), wy.eval(xh, yh)], axis=-1)
            val0[i, j] = w @ vals
            val1[i, j] = (w * s) @ vals
            div0[i, j] = w @ divs
            div1[i, j] = (w * s) @ divs
        corners[i] = phi.eval(CORNERS[:, 0], CORNERS[:, 1])
    return val0, val1, div0, div1, corners[:, np.array(EDGE_CORNERS)]


def volume_tabulation(basis, nq):
    """``(phi, divphi, ddphi)`` of :class:`ddivfem.piola.VolumeTabulation`."""
    rule = gauss_rule(nq, dim=2)
    xh, yh = rule.points[:, 0], rule.points[:, 1]
    nb = len(basis)
    phi = np.zeros((nb, len(rule), 3))
    divphi = np.zeros((nb, len(rule), 2))
    ddphi = np.zeros((nb, len(rule)))
    for i, p in enumerate(basis):
        phi[i] = p.eval(xh, yh)
        wx, wy = p.div()
        divphi[i, :, 0] = wx.eval(xh, yh)
        divphi[i, :, 1] = wy.eval(xh, yh)
        ddphi[i] = p.divdiv().eval(xh, yh)
    return phi, divphi, ddphi


def divdiv_matrix(basis):
    """:func:`ddivfem.reference.divdiv_matrix`: (nb, 3) coefficients on {1, x, y}."""
    out = np.zeros((len(basis), 3))
    for i, phi in enumerate(basis):
        p = phi.divdiv()
        if p.degx > 1 or p.degy > 1 or (p.degx == 1 and p.degy == 1 and p.c[1, 1] != 0.0):
            raise ValueError("div div of shape function %d is not in P1" % (i + 1))
        c = np.zeros((2, 2))
        c[: p.c.shape[0], : p.c.shape[1]] = p.c
        out[i] = [c[0, 0], c[1, 0], c[0, 1]]
    return out
