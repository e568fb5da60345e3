"""Mapping reference tensors and degrees of freedom to physical cells.

A cell K with counterclockwise corners v0..v3 is the image of the reference
square under F(xh) = a + B xh with B = [(v1 - v0)/2, (v3 - v0)/2] and
a = (v0 + v2)/2.  A reference tensor Mh is pushed forward by the
double contravariant transform

    M(F(xh)) = B Mh(xh) B^T / det B,

which preserves the normal-normal trace pairing, the effective shear
pairing, and the corner jumps, and satisfies

    (div M)(F(xh)) = B (divh Mh)(xh) / det B,
    (div div M)(F(xh)) = (divh divh Mh)(xh) / det B.

Physical degrees of freedom are stated in global edge frames: each mesh edge
points from its lower-numbered to its higher-numbered vertex, the tangent t
follows that direction, the normal is n = (t_y, -t_x), and the linear
Legendre weight is -1 at the start and +1 at the end of the edge.  Moments
are normalized by edge length, so they scale like point values.

Each convention lives in one place: ``_element_maps`` computes B and a,
:func:`edge_frames` and :func:`normals` the edge frames.
:func:`batch_geometry` combines them for any set of cells.  The one-cell
:func:`element_map`, :class:`PhysicalDofFrame` and :func:`cell_geometry`
use the same arithmetic, so they agree with it bit for bit.
"""

import numpy as np

from .polys import gauss_rule
from .reference import CORNERS, EDGE_CORNERS, build_reference_basis

#: above this condition number the local dof matrix is considered broken
CONDITION_LIMIT = 1e8

#: Gauss points per edge when integrating traces of the pushed basis
#: (their integrands are polynomials of degree at most seven)
EDGE_QUAD_POINTS = 4


class GeometryError(ValueError):
    """Raised when an element map or dof frame is unusable."""


class ElementMap:
    """Affine map F(xh) = a + B xh from [-1, 1]^2 onto a physical cell."""

    def __init__(self, B, a):
        self.B = np.asarray(B, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.det = float(np.linalg.det(self.B))
        if self.det <= 0.0:
            raise GeometryError("element map has nonpositive determinant")
        self.Binv = np.linalg.inv(self.B)

    def apply(self, xh, yh):
        """Map reference coordinates to physical coordinates."""
        x = self.a[0] + self.B[0, 0] * xh + self.B[0, 1] * yh
        y = self.a[1] + self.B[1, 0] * xh + self.B[1, 1] * yh
        return x, y

    def pull(self, x, y):
        """Map physical coordinates back to reference coordinates."""
        dx = x - self.a[0]
        dy = y - self.a[1]
        xh = self.Binv[0, 0] * dx + self.Binv[0, 1] * dy
        yh = self.Binv[1, 0] * dx + self.Binv[1, 1] * dy
        return xh, yh


def _element_maps(mesh, cells):
    """``B`` (..., 2, 2) and ``a`` (..., 2) of the element maps of cells ``cells``."""
    v = mesh.vertices[mesh.cells[cells]]
    B = 0.5 * np.stack([v[..., 1, :] - v[..., 0, :], v[..., 3, :] - v[..., 0, :]], axis=-1)
    return B, 0.5 * (v[..., 0, :] + v[..., 2, :])


def edge_frames(mesh, edges):
    """Unit tangents (..., 2) and lengths (...) of mesh edges ``edges``.

    Each tangent points from the lower- to the higher-numbered vertex.
    """
    ends = mesh.vertices[mesh.edges[edges]]
    vec = ends[..., 1, :] - ends[..., 0, :]
    lengths = np.linalg.norm(vec, axis=-1)
    if np.any(lengths <= 0.0):
        e = np.asarray(edges).flat[np.argmin(lengths)]
        raise GeometryError("edge %d has zero length" % e)
    return vec / lengths[..., None], lengths


def normals(t):
    """The normals n = (t_y, -t_x) of tangents (..., 2)."""
    return np.stack([t[..., 1], -t[..., 0]], axis=-1)


def element_map(mesh, k):
    """ElementMap of cell k, with its corners as images of the reference corners."""
    return ElementMap(*_element_maps(mesh, k))


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


class PhysicalDofFrame:
    """Edge and corner frames of one cell in global orientation.

    Attributes
    ----------
    edge_ids : (4,) int
        Global edge index per local edge.
    tangents, normals : (4, 2)
        Global unit frames of those edges (tangent from the lower to the
        higher vertex index, normal the tangent rotated by -90 degrees).
    lengths : (4,)
    forward : (4,) bool
        Whether the local counterclockwise traversal agrees with the global
        edge direction.
    """

    def __init__(self, mesh, k):
        self.cell = k
        self.edge_ids = mesh.cell_edges[k].copy()
        self.forward = mesh.cell_edge_forward[k].copy()
        self.tangents, self.lengths = edge_frames(mesh, self.edge_ids)
        self.normals = normals(self.tangents)


def _edge_param_points(nq):
    """Gauss nodes and weights on the reference edge parameter (-1, 1)."""
    rule = gauss_rule(nq, dim=1)
    return rule.points, rule.weights


def _reference_edge_points(edge, s):
    """Reference coordinates of the points at traversal parameter s on an edge."""
    a = CORNERS[EDGE_CORNERS[edge][0]]
    b = CORNERS[EDGE_CORNERS[edge][1]]
    xh = 0.5 * (a[0] + b[0]) + 0.5 * (b[0] - a[0]) * s
    yh = 0.5 * (a[1] + b[1]) + 0.5 * (b[1] - a[1]) * s
    return xh, yh


def physical_dofs(emap, frame, M, nq=EDGE_QUAD_POINTS):
    """The 20 physical degrees of freedom of the pushed tensor H_K(M).

    M is a SymTensorPoly on the reference square.  Edge moments are taken in
    the global frames of ``frame`` and divided by edge length; the shear
    moments are evaluated through the integration-by-parts form

        q0 = int_e n.div M ds + [t.Mn](hi) - [t.Mn](lo),
        q1 = int_e n.div M l ds + [t.Mn](hi) + [t.Mn](lo) - (2/|e|) int_e t.Mn ds,

    so only point values and plain integrals of the pushed field are needed.
    Corner jumps are taken in the cell-local outward frames.

    This single-cell form is the specification of the functionals;
    :func:`dof_matrices` applies the same formulas to whole meshes.
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
        j_in, j_out = (c - 1) % 4, c
        t_in = _local_tangent(frame, j_in)
        t_out = _local_tangent(frame, j_out)
        dofs[16 + c] = float(t_in @ A @ normals(t_in) - t_out @ A @ normals(t_out))
    return dofs


def _local_tangent(frame, j):
    """Unit tangent of local edge j in counterclockwise traversal."""
    t = frame.tangents[j]
    return t if frame.forward[j] else -t


class EdgeTabulation:
    """What the 20 physical dof functionals read of a reference basis.

    The functionals are linear in the tensor, so each is fixed once the edge
    rule is: Gauss moments along the reference edges and corner values.  For
    basis function i and reference edge j (traversal parameter s):

    ``val0[i, j]``, ``val1[i, j]`` : (3,)
        Moments of the components (xx, xy, yy) against 1 and s.
    ``div0[i, j]``, ``div1[i, j]`` : (2,)
        The same for the row divergence.
    ``ends[i, j]`` : (2, 3)
        Component values at the start and end corner of the edge.
    """

    def __init__(self, basis, nq):
        s, w = _edge_param_points(nq)
        nb = len(basis)
        self.val0 = np.zeros((nb, 4, 3))
        self.val1 = np.zeros((nb, 4, 3))
        self.div0 = np.zeros((nb, 4, 2))
        self.div1 = np.zeros((nb, 4, 2))
        corners = np.zeros((nb, 4, 3))
        for i, phi in enumerate(basis):
            wx, wy = phi.div()
            for j in range(4):
                xh, yh = _reference_edge_points(j, s)
                vals = phi.eval(xh, yh)
                divs = np.stack([wx.eval(xh, yh), wy.eval(xh, yh)], axis=-1)
                self.val0[i, j] = w @ vals
                self.val1[i, j] = (w * s) @ vals
                self.div0[i, j] = w @ divs
                self.div1[i, j] = (w * s) @ divs
            corners[i] = phi.eval(CORNERS[:, 0], CORNERS[:, 1])
        self.ends = corners[:, np.array(EDGE_CORNERS)]


class VolumeTabulation:
    """Basis values, row divergences and div div at the nodes of a Gauss rule."""

    def __init__(self, basis, nq):
        rule = gauss_rule(nq, dim=2)
        self.rule = rule
        xh, yh = rule.points[:, 0], rule.points[:, 1]
        nb = len(basis)
        npts = len(rule)
        self.phi = np.zeros((nb, npts, 3))
        self.divphi = np.zeros((nb, npts, 2))
        self.ddphi = np.zeros((nb, npts))
        for i, p in enumerate(basis):
            self.phi[i] = p.eval(xh, yh)
            wx, wy = p.div()
            self.divphi[i, :, 0] = wx.eval(xh, yh)
            self.divphi[i, :, 1] = wy.eval(xh, yh)
            self.ddphi[i] = p.divdiv().eval(xh, yh)
        self.xh, self.yh = xh, yh


class CellGeometry:
    """Element maps and global edge frames of n cells, with a leading cell axis.

    Attributes
    ----------
    B : (n, 2, 2)
    a : (n, 2)
    det : (n,)
    tangents : (n, 4, 2)
        Global unit tangents of the local edges, as in PhysicalDofFrame.
    lengths : (n, 4)
    forward : (n, 4) bool
    """

    def __init__(self, B, a, det, tangents, lengths, forward):
        self.B = B
        self.a = a
        self.det = det
        self.tangents = tangents
        self.lengths = lengths
        self.forward = forward

    @staticmethod
    def of_cell(emap, frame):
        """The n = 1 geometry of one (ElementMap, PhysicalDofFrame) pair."""
        return CellGeometry(
            emap.B[None], emap.a[None], np.array([emap.det]), frame.tangents[None],
            frame.lengths[None], frame.forward[None],
        )

    def keys(self):
        """One row per cell of the exact values :func:`dof_matrices` reads.

        B, the tangents, the lengths and ``forward``; the determinant follows
        from B.  Adding 0.0 folds -0.0 into 0.0, so rows are equal exactly
        when the dof matrices built from them are.
        """
        n = len(self.B)
        rows = [self.B.reshape(n, 4), self.tangents.reshape(n, 8), self.lengths, self.forward]
        return np.hstack(rows) + 0.0


def batch_geometry(mesh, cells=None):
    """CellGeometry of the cells ``cells`` of a mesh, by default all in cell order."""
    if cells is None:
        cells = np.arange(mesh.num_cells)
    B, a = _element_maps(mesh, cells)
    det = np.linalg.det(B)
    if np.any(det <= 0.0):
        raise GeometryError(
            "cell %d has a nonpositive element map determinant" % cells[np.argmin(det)]
        )
    tangents, lengths = edge_frames(mesh, mesh.cell_edges[cells])
    return CellGeometry(B, a, det, tangents, lengths, mesh.cell_edge_forward[cells])


def dof_matrices(geometry, tab):
    """Local dof matrices T (n, 20, 20) of n cells in one contraction.

    ``T[k, m, i]`` is the m-th physical dof of the i-th reference shape
    function pushed to cell k: the formulas of :func:`physical_dofs`, with
    the pushforward folded into per-edge weights.  For a frame vector v,
    v.M n = (B^T v).Mh (B^T n) / det B and n.div M = (B^T n).divh Mh / det B.
    """
    B, t = geometry.B, geometry.tangents
    a = np.einsum("kba,kjb->kja", B, normals(t))
    b = np.einsum("kba,kjb->kja", B, t)
    d = geometry.det[:, None, None]
    w_nn = np.stack([a[..., 0] ** 2, 2.0 * a[..., 0] * a[..., 1], a[..., 1] ** 2], axis=-1) / d
    w_tn = np.stack(
        [
            b[..., 0] * a[..., 0],
            b[..., 0] * a[..., 1] + b[..., 1] * a[..., 0],
            b[..., 1] * a[..., 1],
        ],
        axis=-1,
    ) / d
    w_div = a / d

    nn0 = np.einsum("kjc,ijc->kji", w_nn, tab.val0)
    nn1 = np.einsum("kjc,ijc->kji", w_nn, tab.val1)
    tn0 = np.einsum("kjc,ijc->kji", w_tn, tab.val0)
    dv0 = np.einsum("kjc,ijc->kji", w_div, tab.div0)
    dv1 = np.einsum("kjc,ijc->kji", w_div, tab.div1)
    tn_ends = np.einsum("kjc,ijec->kjei", w_tn, tab.ends)
    start, stop = tn_ends[:, :, 0], tn_ends[:, :, 1]

    # the global Legendre weight is +-s, and the global endpoints (lo, hi)
    # are the traversal's (start, stop) or (stop, start)
    sign = np.where(geometry.forward, 1.0, -1.0)[..., None]
    half = 0.5 * geometry.lengths[..., None]
    T = np.empty((len(B), 20, 20))
    T[:, 0:4] = 0.5 * nn0
    T[:, 4:8] = 0.5 * sign * nn1
    T[:, 8:12] = half * dv0 + sign * (stop - start)
    T[:, 12:16] = half * sign * dv1 + (stop + start) - tn0
    # corner c ends local edge c - 1 and starts local edge c; the jump is
    # sign free because tangent and normal flip together
    T[:, 16:20] = np.roll(stop, 1, axis=1) - start
    return T


class LocalBasis:
    """Change of basis between reference shape functions and physical dofs.

    ``T[m, i]`` is the m-th physical degree of freedom of the pushed i-th
    reference shape function; ``Tinv`` maps physical dof values of a tensor
    to its reference expansion coefficients.
    """

    def __init__(self, T):
        self.T = T
        self.cond = float(np.linalg.cond(T))
        if not np.isfinite(self.cond) or self.cond > CONDITION_LIMIT:
            raise GeometryError(
                "local dof matrix condition %.3e exceeds %.1e"
                % (self.cond, CONDITION_LIMIT)
            )
        self.Tinv = np.linalg.inv(T)


def local_basis_matrix(emap, frame, tab):
    """LocalBasis of one cell (uncached) from an EdgeTabulation."""
    return LocalBasis(dof_matrices(CellGeometry.of_cell(emap, frame), tab)[0])


class BasisCache:
    """Caches LocalBasis objects keyed by the exact geometry of a cell.

    The key of a cell is the row of :meth:`CellGeometry.keys`: the exact
    values of B, the edge tangents and lengths, and the edge orientations
    that :func:`dof_matrices` reads.  Cells share a LocalBasis only when
    their dof matrices are bitwise equal; uniform meshes have a handful of
    distinct keys, so each distinct local matrix is inverted once.  The
    cache also owns the tabulations of its reference basis, one per kind
    and rule, built on first use.
    """

    def __init__(self, basis=None):
        self.basis = basis if basis is not None else build_reference_basis()
        self._store = {}
        self._tabs = {}

    def key(self, emap, frame):
        return tuple(CellGeometry.of_cell(emap, frame).keys()[0])

    def get(self, emap, frame):
        key = self.key(emap, frame)
        lb = self._store.get(key)
        if lb is None:
            lb = local_basis_matrix(emap, frame, self.edge_tabulation())
            self._store[key] = lb
        return lb

    def groups(self, mesh):
        """Cells of a mesh with equal keys, and the inverse dof matrix of each group.

        The keys of :meth:`key` are computed for all cells at once.  Returns
        ``(first, group, Tinv)``: the first cell of each group, groups
        numbered in the order of their first cells; the group of every
        cell; and ``Tinv`` (ngroups, 20, 20), from one :meth:`get` per group
        on its first cell.
        """
        keys = batch_geometry(mesh).keys()
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        Tinv = np.stack([self.get(*cell_geometry(mesh, int(k))).Tinv for k in first[order]])
        return first[order], np.argsort(order)[inverse.ravel()], Tinv

    def edge_tabulation(self, nq=EDGE_QUAD_POINTS):
        """EdgeTabulation of the basis for an nq-point edge rule."""
        return self._tabulation(EdgeTabulation, nq)

    def volume_tabulation(self, nq):
        """VolumeTabulation of the basis for an nq x nq Gauss rule."""
        return self._tabulation(VolumeTabulation, nq)

    def _tabulation(self, kind, nq):
        tab = self._tabs.get((kind, nq))
        if tab is None:
            tab = self._tabs[(kind, nq)] = kind(self.basis, nq)
        return tab

    def __len__(self):
        return len(self._store)


def cell_geometry(mesh, k):
    """(ElementMap, PhysicalDofFrame) of cell k; each part is computed once."""
    return element_map(mesh, k), PhysicalDofFrame(mesh, k)
