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

The shear moments are evaluated through the integration-by-parts form

    q0 = int_e n.div M ds + [t.Mn](hi) - [t.Mn](lo),
    q1 = int_e n.div M l ds + [t.Mn](hi) + [t.Mn](lo) - (2/|e|) int_e t.Mn ds,

so only corner values and moments against 1 and s of the pushed field are
needed.  Corner jumps t_in.M n_in - t_out.M n_out are taken with the
counterclockwise tangents of the edges entering and leaving the corner.
Under the pushforward all of these are fixed linear combinations of the
reference basis's edge moments and corner values; :class:`EdgeTabulation`
reads those exactly off the restriction of the coefficient grids to the
edges (:func:`ddivfem.reference.edge_restriction`) with the weights of
:func:`ddivfem.reference.edge_weights`, and with no edge rule.

Each convention lives in one place: :func:`element_maps` computes B, a and
det B, :func:`edge_frames` and :func:`normals` the edge frames.
:func:`batch_geometry` combines them for any set of cells, and
:func:`dof_matrices` builds the local dof matrices of all of them in one
contraction.  Cells whose :meth:`CellGeometry.keys` rows are equal have
bitwise equal dof matrices, and :func:`ddivfem.mesh.cell_groups` groups
them, so each distinct matrix is built once.  :meth:`BasisCache.groups` is
the only place the library checks and inverts local dof matrices, one batch
per call; :func:`ddivfem.space.check_conformity` builds one per group without
inverting it.  The test suite states the same maps and functionals one cell
at a time, with its own Gauss rule along the edges (``tests/cellspec.py``),
and checks this layer against them.
"""

import numpy as np

from .mesh import cell_groups
from .polys import gauss_rule
from .reference import (
    build_reference_basis,
    coefficient_grids,
    edge_restriction,
    edge_weights,
    frame_weights,
)

#: above this condition number the local dof matrix is considered broken
CONDITION_LIMIT = 1e8


class GeometryError(ValueError):
    """Raised when an element map or dof frame is unusable."""


def element_maps(mesh, cells):
    """``B`` (n, 2, 2), ``a`` (n, 2) and ``det`` (n,) of the element maps of cells ``cells``.

    Raises :class:`GeometryError` for a determinant that is not finite and positive.
    """
    v = mesh.vertices[mesh.cells[cells]]
    B = 0.5 * np.stack([v[..., 1, :] - v[..., 0, :], v[..., 3, :] - v[..., 0, :]], axis=-1)
    with np.errstate(over="ignore"):
        det = np.linalg.det(B)
    bad = ~(np.isfinite(det) & (det > 0.0))
    if np.any(bad):
        raise GeometryError(
            "cell %d has a nonpositive or overflowing element map determinant"
            % cells[np.argmax(bad)]
        )
    return B, 0.5 * (v[..., 0, :] + v[..., 2, :]), det


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


def _tabulate(grid, xh, yh):
    """Values (nb, ..., c) at points (...) of coefficient grids (n, n, nb, c)."""
    return np.moveaxis(np.polynomial.polynomial.polyval2d(xh, yh, grid), 1, -1)


class EdgeTabulation:
    """What the 20 physical dof functionals read of a reference basis.

    The functionals are linear in the tensor, so each is fixed by exact
    moments of the basis along the reference edges and its corner values,
    all read off :func:`ddivfem.reference.edge_restriction`.  For basis
    function i and reference edge j (traversal parameter s):

    ``val0[i, j]``, ``val1[i, j]`` : (3,)
        Moments of the components (xx, xy, yy) against 1 and s.
    ``div0[i, j]``, ``div1[i, j]`` : (2,)
        The same for the row divergence.
    ``ends[i, j]`` : (2, 3)
        Component values at the start and end corner of the edge.

    On the reference basis, and on any dyadic basis whose integer-weighted
    sums are exact, every entry is the exact rational rounded once.
    """

    def __init__(self, basis):
        vals = edge_restriction(basis)
        divs = edge_restriction(coefficient_grids(basis)[0])
        # s = -1 at the start corner of the edge and s = +1 at its end
        w, den, ends = edge_weights(basis.shape[0])
        self.val0, self.val1 = np.einsum("pm,jmic->pijc", w, vals) / den
        self.div0, self.div1 = np.einsum("pm,jmic->pijc", w, divs) / den
        self.ends = np.einsum("em,jmic->ijec", ends, vals)


class VolumeTabulation:
    """Basis values, row divergences and div div at the nodes of a Gauss rule."""

    def __init__(self, basis, nq):
        rule = gauss_rule(nq, dim=2)
        self.rule = rule
        xh, yh = rule.points[:, 0], rule.points[:, 1]
        div, divdiv = coefficient_grids(basis)
        self.phi = _tabulate(basis, xh, yh)
        self.divphi = _tabulate(div, xh, yh)
        self.ddphi = np.polynomial.polynomial.polyval2d(xh, yh, divdiv)
        self.xh, self.yh = xh, yh


class CellGeometry:
    """Element maps and global edge frames of n cells, with a leading cell axis.

    Attributes
    ----------
    B : (n, 2, 2)
    a : (n, 2)
    det : (n,)
    tangents : (n, 4, 2)
        Global unit tangents of the local edges, each from the lower- to the
        higher-numbered vertex.
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

    def keys(self):
        """One row per cell of the exact values :func:`dof_matrices` reads.

        B, the tangents, the lengths and ``forward``; the determinant follows
        from B.  Rows that :func:`ddivfem.mesh.cell_groups` groups, -0.0
        and 0.0 alike, give bitwise equal dof matrices.
        """
        n = len(self.B)
        rows = [self.B.reshape(n, 4), self.tangents.reshape(n, 8), self.lengths, self.forward]
        return np.hstack(rows)


def batch_geometry(mesh, cells=None):
    """CellGeometry of the cells ``cells`` of a mesh, by default all in cell order."""
    if cells is None:
        cells = np.arange(mesh.num_cells)
    B, a, det = element_maps(mesh, cells)
    tangents, lengths = edge_frames(mesh, mesh.cell_edges[cells])
    return CellGeometry(B, a, det, tangents, lengths, mesh.cell_edge_forward[cells])


def dof_matrices(geometry, tab):
    """Local dof matrices T (n, 20, 20) of n cells in one contraction.

    ``T[k, m, i]`` is the m-th physical dof of the i-th reference shape
    function pushed to cell k: the functionals of the module docstring, with
    the pushforward folded into per-edge weights.  For a frame vector v,
    v.M n = (B^T v).Mh (B^T n) / det B and n.div M = (B^T n).divh Mh / det B.
    """
    B, t = geometry.B, geometry.tangents
    a = np.einsum("kba,kjb->kja", B, normals(t))
    b = np.einsum("kba,kjb->kja", B, t)
    d = geometry.det[:, None, None]
    w_nn = frame_weights(a, a) / d
    w_tn = frame_weights(b, a) / d
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


def _checked_inverses(T):
    """Inverses of dof matrices T (n, 20, 20), once all pass the condition check."""
    cond = np.linalg.cond(T)
    bad = ~(cond <= CONDITION_LIMIT)
    if np.any(bad):
        raise GeometryError(
            "local dof matrix condition %.3e exceeds %.1e"
            % (cond[np.argmax(bad)], CONDITION_LIMIT)
        )
    return np.linalg.inv(T)


class BasisCache:
    """Caches inverse local dof matrices keyed by the exact geometry of a cell.

    The key of a cell is the row of :meth:`CellGeometry.keys`: the exact
    values of B, the edge tangents and lengths, and the edge orientations
    that :func:`dof_matrices` reads.  Cells share an inverse only when
    their dof matrices are bitwise equal; uniform meshes have a handful of
    distinct keys, so each distinct local matrix is inverted once.  The
    cache also owns the tabulations of its reference basis, the edge
    tabulation and one volume tabulation per rule, built on first use.

    :meth:`groups` builds, checks and inverts the dof matrices of the groups
    whose keys are new in one batch, and then hands every group to
    :meth:`get` as ``(key, Tinv)``; it is the only place the library
    inverts local dof matrices.  ``get`` returns the stored inverse of
    ``key``, or on a miss stores the one passed.  There is one ``get`` call
    per group on every ``groups`` call, and a miss adds exactly one entry,
    so a subclass that overrides ``get`` counts hits and misses per
    distinct cell.
    """

    def __init__(self, basis=None):
        self.basis = basis if basis is not None else build_reference_basis()
        self._store = {}
        self._tabs = {}

    def get(self, key, Tinv):
        """The inverse dof matrix stored under ``key``; ``Tinv`` is stored on a miss."""
        return self._store.setdefault(key, Tinv)

    def groups(self, mesh):
        """Cells of a mesh with equal keys, and the inverse dof matrix of each group.

        Returns ``(first, group, Tinv)``: the first cell of each group, groups
        numbered in the order of their first cells; the group of every
        cell; and ``Tinv`` (ngroups, 20, 20).  The keys of all cells come
        from one :func:`batch_geometry` and are grouped by
        :func:`ddivfem.mesh.cell_groups`.  The first cells of the groups not
        yet stored get their dof matrices from one :func:`dof_matrices` call
        and their inverses from :func:`_checked_inverses`, which raises
        before anything is stored; each group is then looked up with one
        :meth:`get`, in the order of the groups.
        """
        keys = batch_geometry(mesh).keys()
        first, group = cell_groups(keys)
        keys = [tuple(keys[k]) for k in first]
        new = [i for i, key in enumerate(keys) if key not in self._store]
        fresh = {}
        if new:
            T = dof_matrices(batch_geometry(mesh, first[new]), self.edge_tabulation())
            fresh = dict(zip([keys[i] for i in new], _checked_inverses(T)))
        Tinv = np.stack([self.get(key, fresh.get(key)) for key in keys])
        return first, group, Tinv

    def edge_tabulation(self):
        """EdgeTabulation of the basis."""
        return self._tabulation(EdgeTabulation)

    def volume_tabulation(self, nq):
        """VolumeTabulation of the basis for an nq x nq Gauss rule."""
        return self._tabulation(VolumeTabulation, nq)

    def _tabulation(self, kind, *args):
        tab = self._tabs.get((kind,) + args)
        if tab is None:
            tab = self._tabs[(kind,) + args] = kind(self.basis, *args)
        return tab

    def __len__(self):
        return len(self._store)

