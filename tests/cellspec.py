"""One-cell and one-tensor statements of the element, as the test oracle.

The library builds the element maps and physical dofs for whole meshes at
once (:attr:`ddivfem.mesh.Mesh.geometry`, :func:`ddivfem.piola.dof_matrices`).
This module writes the same maps and functionals out for one cell at a time,
in the form the :mod:`ddivfem.piola` docstring states them, and the tests
use it as the specification that the batched layer is checked against.

The library holds every polynomial as coefficient grids: the reference
element as one array (:func:`ddivfem.reference.build_reference_basis`),
the exact fields through :meth:`ddivfem.interpolation.TensorField.from_grid`.
This module keeps an independent bivariate polynomial calculus,
:class:`Poly2`, builds the 20 shape tensors from its products as
:class:`SymTensorPoly` objects, and states the reference dof functionals,
the tabulations, the div div images and tensor fields one tensor at a time
through it, as the specification of the library's routines over grids.
The edge tabulation is stated as exact ``Fraction`` moments of the edge
restrictions; the one-cell physical dofs integrate along the edges with
their own Gauss rule, independent of the library's exact moments.
It also holds three helpers that only the tests use: the values of a
per-cell linear, a numbering-free form of a mesh for comparing meshes, and
the library's compressed rows as a scipy matrix, the sparse oracle.
"""

from fractions import Fraction
from math import perm

import numpy as np
import scipy.sparse as sp

from ddivfem.piola import CellGeometry
from ddivfem.interpolation import TensorField
from ddivfem.polys import gauss_rule
from ddivfem.reference import EDGE_NORMALS, EDGE_TANGENTS

# reference corner coordinates, counterclockwise from (-1, -1), and per edge
# its (start corner, end corner) as indices into CORNERS
CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
EDGE_CORNERS = [(0, 1), (1, 2), (2, 3), (3, 0)]

#: Gauss points per edge of the one-cell functionals (their integrands are
#: polynomials of degree at most seven)
EDGE_QUAD_POINTS = 4


def _trim(c):
    """Drop all-zero trailing rows/columns of a coefficient grid."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    nz = np.nonzero(c)
    if len(nz[0]) == 0:
        return np.zeros((1, 1))
    return c[: nz[0].max() + 1, : nz[1].max() + 1].copy()


def _moments(deg):
    """Integrals of t**k over [-1, 1] for k = 0..deg: 2/(k+1) for even k, 0 for odd."""
    k = np.arange(deg + 1)
    return np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)


class Poly2:
    """Bivariate polynomial p(x, y) = sum_ij c[i, j] x**i y**j.

    The coefficient grid ``c`` is kept trimmed to its nonzero extent; axis 0
    is the x-degree.  Ring operations and derivatives act on the
    coefficients, so identities hold exactly for dyadic grids.
    """

    def __init__(self, coeffs):
        self.c = _trim(coeffs)

    @staticmethod
    def zero():
        return Poly2([[0.0]])

    @staticmethod
    def const(a):
        return Poly2([[float(a)]])

    @staticmethod
    def x():
        return Poly2([[0.0], [1.0]])

    @staticmethod
    def y():
        return Poly2([[0.0, 1.0]])

    @property
    def degx(self):
        return self.c.shape[0] - 1

    @property
    def degy(self):
        return self.c.shape[1] - 1

    def is_zero(self, tol=0.0):
        return np.all(np.abs(self.c) <= tol)

    def _promote(self, other):
        if isinstance(other, Poly2):
            return other
        return Poly2.const(other)

    def __add__(self, other):
        other = self._promote(other)
        nx = max(self.c.shape[0], other.c.shape[0])
        ny = max(self.c.shape[1], other.c.shape[1])
        c = np.zeros((nx, ny))
        c[: self.c.shape[0], : self.c.shape[1]] += self.c
        c[: other.c.shape[0], : other.c.shape[1]] += other.c
        return Poly2(c)

    __radd__ = __add__

    def __neg__(self):
        return Poly2(-self.c)

    def __sub__(self, other):
        return self + (-self._promote(other))

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return Poly2(self.c * float(other))
        c = np.zeros((self.degx + other.degx + 1, self.degy + other.degy + 1))
        for i in range(self.c.shape[0]):
            for j in range(self.c.shape[1]):
                if self.c[i, j] != 0.0:
                    c[i : i + other.c.shape[0], j : j + other.c.shape[1]] += (
                        self.c[i, j] * other.c
                    )
        return Poly2(c)

    __rmul__ = __mul__

    def dx(self):
        """Partial derivative with respect to x."""
        if self.degx == 0:
            return Poly2.zero()
        return Poly2(self.c[1:, :] * np.arange(1, self.c.shape[0])[:, None])

    def dy(self):
        """Partial derivative with respect to y."""
        if self.degy == 0:
            return Poly2.zero()
        return Poly2(self.c[:, 1:] * np.arange(1, self.c.shape[1])[None, :])

    def integrate(self):
        """Exact integral over the reference square [-1, 1]^2."""
        return float(np.einsum("ij,i,j->", self.c, _moments(self.degx), _moments(self.degy)))

    def eval(self, x, y):
        """Evaluate at points of equal shape."""
        return np.polynomial.polynomial.polyval2d(np.asarray(x), np.asarray(y), self.c)


class SymTensorPoly:
    """Symmetric 2x2 tensor with polynomial entries (axx, axy, ayy)."""

    def __init__(self, axx, axy, ayy):
        self.axx = axx
        self.axy = axy
        self.ayy = ayy

    def __add__(self, other):
        return SymTensorPoly(self.axx + other.axx, self.axy + other.axy, self.ayy + other.ayy)

    def __sub__(self, other):
        return SymTensorPoly(self.axx - other.axx, self.axy - other.axy, self.ayy - other.ayy)

    def __mul__(self, a):
        return SymTensorPoly(self.axx * a, self.axy * a, self.ayy * a)

    __rmul__ = __mul__

    def eval(self, x, y):
        """Component values (axx, axy, ayy) at the given points."""
        return np.stack(
            [self.axx.eval(x, y), self.axy.eval(x, y), self.ayy.eval(x, y)], axis=-1
        )

    def div(self):
        """Row divergence (dx axx + dy axy, dx axy + dy ayy) as two Poly2."""
        return (self.axx.dx() + self.axy.dy(), self.axy.dx() + self.ayy.dy())

    def divdiv(self):
        """The scalar dxx axx + 2 dxy axy + dyy ayy as a Poly2."""
        return self.axx.dx().dx() + 2.0 * self.axy.dx().dy() + self.ayy.dy().dy()

    def at_corner(self, c):
        """The 2x2 matrix value at corner c (0..3)."""
        x, y = CORNERS[c]
        mxx = self.axx.eval(x, y)
        mxy = self.axy.eval(x, y)
        myy = self.ayy.eval(x, y)
        return np.array([[mxx, mxy], [mxy, myy]])


def reference_tensors():
    """The 20 shape functions as a list of SymTensorPoly, built from Poly2 products.

    All coefficients are integer multiples of 1/8, so the construction is
    exact in binary floating point.
    """
    x = Poly2.x()
    y = Poly2.y()
    one = Poly2.const(1.0)
    z = Poly2.zero()

    def sym(axx, axy, ayy):
        return SymTensorPoly(axx, axy, ayy)

    e = 0.125  # 1/8

    basis = []
    # constant and linear normal-normal moments (edges 1..4): phi 1..8
    basis.append(sym(z, z, e * (4.0 * one - 6.0 * y + 2.0 * y * y * y)))
    basis.append(sym(e * (4.0 * one + 6.0 * x - 2.0 * x * x * x), z, z))
    basis.append(sym(z, z, e * (4.0 * one + 6.0 * y - 2.0 * y * y * y)))
    basis.append(sym(e * (4.0 * one - 6.0 * x + 2.0 * x * x * x), z, z))

    basis.append(sym(z, e * (x * x - one), e * (4.0 * x * (one - y))))
    basis.append(sym(e * (4.0 * (one + x) * y), e * (one - y * y), z))
    basis.append(sym(z, e * (x * x - one), e * (-4.0 * x * (one + y))))
    basis.append(sym(e * (-4.0 * (one - x) * y), e * (one - y * y), z))

    # constant and linear effective-shear moments: phi 9..16
    q = 0.25
    basis.append(sym(z, z, q * ((one - y) * (y * y - one))))
    basis.append(sym(q * ((one + x) * (x * x - one)), z, z))
    basis.append(sym(z, z, q * ((one + y) * (y * y - one))))
    basis.append(sym(q * ((one - x) * (x * x - one)), z, z))

    basis.append(sym(z, e * ((one - y) * (one - x * x)), z))
    basis.append(sym(z, e * ((one + x) * (y * y - one)), z))
    basis.append(sym(z, e * ((one + y) * (one - x * x)), z))
    basis.append(sym(z, e * ((one - x) * (y * y - one)), z))

    # corner jump functions: phi 17..20
    basis.append(
        sym(
            e * ((one - x) * (one - x * x)),
            e * ((one - x) * (one - y)),
            e * ((one - y) * (one - y * y)),
        )
    )
    basis.append(
        sym(
            e * ((one + x) * (one - x * x)),
            e * ((one + x) * (y - one)),
            e * ((one - y) * (one - y * y)),
        )
    )
    basis.append(
        sym(
            e * ((one + x) * (one - x * x)),
            e * ((one + x) * (one + y)),
            e * ((one + y) * (one - y * y)),
        )
    )
    basis.append(
        sym(
            e * ((one - x) * (one - x * x)),
            e * ((x - one) * (one + y)),
            e * ((one + y) * (one - y * y)),
        )
    )
    return basis


def stack_grids(tensor_list):
    """A list of SymTensorPoly as zero-padded coefficient grids (n, n, nb, 3)."""
    comps = [p.c for phi in tensor_list for p in (phi.axx, phi.axy, phi.ayy)]
    n = max(max(c.shape) for c in comps)
    values = np.zeros((n, n, len(comps)))
    for k, c in enumerate(comps):
        values[: c.shape[0], : c.shape[1], k] = c
    return values.reshape(n, n, len(tensor_list), 3)


def tensors(basis):
    """The tensors of a coefficient-grid stack (n, n, nb, 3) as SymTensorPoly."""
    return [
        SymTensorPoly(*(Poly2(basis[:, :, k, c]) for c in range(3)))
        for k in range(basis.shape[2])
    ]


def tensor_field(grid):
    """:meth:`ddivfem.interpolation.TensorField.from_grid` through the Poly2 calculus.

    ``grid`` is one coefficient grid (n, n, 3); div div is the divergence
    of the row divergence.
    """
    M = tensors(np.asarray(grid, dtype=float)[:, :, None, :])[0]
    wx, wy = M.div()
    dd = wx.dx() + wy.dy()

    def div(x, y):
        return np.stack([wx.eval(x, y), wy.eval(x, y)], axis=-1)

    return TensorField(M.eval, div, dd.eval)


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


def edge_gauss_points(nq):
    """Gauss nodes and weights on the reference edge parameter (-1, 1)."""
    rule = gauss_rule(nq, dim=1)
    return rule.points, rule.weights


def reference_edge_points(edge, s):
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
    moments use the integration-by-parts form of the piola docstring.
    Corner jumps are taken in the cell-local counterclockwise frames.
    """
    s, w = edge_gauss_points(nq)
    wx_p, wy_p = M.div()
    dofs = np.zeros(20)

    for j in range(4):
        xh, yh = reference_edge_points(j, s)
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
    """T (20, 20) of cell k: column i holds the physical dofs of basis tensor i.

    ``basis`` is a coefficient-grid stack (n, n, nb, 3).
    """
    emap, frame = cell_geometry(mesh, k)
    return np.column_stack([physical_dofs(emap, frame, phi, nq=nq) for phi in tensors(basis)])


# -- reference dof functionals, one tensor at a time -----------------------------

# On edge j the traversal parameter s runs over (-1, 1); the frozen variable,
# its value, and the sign linking s to the free coordinate:
#   e1: y = -1, s = +x;  e2: x = +1, s = +y;  e3: y = +1, s = -x;  e4: x = -1, s = -y
_EDGE_RESTRICTION = [("y", -1.0, +1.0), ("x", 1.0, +1.0), ("y", 1.0, -1.0), ("x", -1.0, -1.0)]


def restrict(p, var, value):
    """1D coefficient array (low to high) of Poly2 p with ``var`` frozen at ``value``."""
    powers_x = np.array([value**i for i in range(p.c.shape[0])])
    powers_y = np.array([value**j for j in range(p.c.shape[1])])
    out = np.trim_zeros(powers_x @ p.c if var == "x" else p.c @ powers_y, "b")
    return out if len(out) else np.zeros(1)


def restrict_to_edge(p, edge):
    """1D coefficients (in the traversal parameter s) of Poly2 p on an edge."""
    var, val, sign = _EDGE_RESTRICTION[edge]
    c = restrict(p, var, val)
    if sign < 0:
        c = c * np.where(np.arange(len(c)) % 2 == 0, 1.0, -1.0)
    return c


def trace_nn(M, edge):
    """Normal-normal trace n.Mn on an edge, as 1D coefficients in s."""
    n = EDGE_NORMALS[edge]
    p = n[0] * n[0] * M.axx + 2.0 * n[0] * n[1] * M.axy + n[1] * n[1] * M.ayy
    return restrict_to_edge(p, edge)


def _tmn(M, edge):
    """t.Mn in the frame of an edge, as a Poly2 on the whole square."""
    n = EDGE_NORMALS[edge]
    t = EDGE_TANGENTS[edge]
    return (
        t[0] * n[0] * M.axx
        + (t[0] * n[1] + t[1] * n[0]) * M.axy
        + t[1] * n[1] * M.ayy
    )


def trace_shear(M, edge):
    """Effective shear trace n.div M + d_t(t.Mn) on an edge, in s coefficients."""
    n = EDGE_NORMALS[edge]
    t = EDGE_TANGENTS[edge]
    wx, wy = M.div()
    ndiv = n[0] * wx + n[1] * wy
    tmn = _tmn(M, edge)
    dt_tmn = t[0] * tmn.dx() + t[1] * tmn.dy()
    return restrict_to_edge(ndiv + dt_tmn, edge)


def corner_jump(M, c):
    """Jump of t.Mn at corner c: value from the edge ending there minus the
    value from the edge starting there (counterclockwise traversal)."""
    end_edge = (c - 1) % 4
    start_edge = c
    A = M.at_corner(c)
    t_in, n_in = EDGE_TANGENTS[end_edge], EDGE_NORMALS[end_edge]
    t_out, n_out = EDGE_TANGENTS[start_edge], EDGE_NORMALS[start_edge]
    return float(t_in @ A @ n_in - t_out @ A @ n_out)


def poly1_int(c):
    """Exact integral of a 1D coefficient array over [-1, 1]."""
    c = np.asarray(c, dtype=float)
    return float(c @ _moments(len(c) - 1))


def dof_values(M):
    """All 20 degrees of freedom of a SymTensorPoly, unnormalized.

    Ordering: four m0 rows (constant normal-normal moment per edge), four m1
    rows (linear moment), four q0 and four q1 rows for the effective shear,
    then the four corner jumps.
    """
    vals = np.zeros(20)
    s = np.array([0.0, 1.0])  # the linear Legendre polynomial l(s) = s
    for j in range(4):
        nn = trace_nn(M, j)
        sh = trace_shear(M, j)
        vals[j] = poly1_int(nn)
        vals[4 + j] = poly1_int(np.convolve(nn, s))
        vals[8 + j] = poly1_int(sh)
        vals[12 + j] = poly1_int(np.convolve(sh, s))
    for c in range(4):
        vals[16 + c] = corner_jump(M, c)
    return vals


def dof_matrix(basis):
    """:func:`ddivfem.reference.dof_matrix`: (20, nb) dofs of a grid stack."""
    return np.column_stack([dof_values(phi) for phi in tensors(basis)])


# -- reference tabulations, one shape function at a time ------------------------


def corrupted_basis(basis, i=7):
    """A copy of a grid stack whose i-th tensor gains x^2 y in its xx component.

    The monomial lies outside every component mask, but its div div (2y)
    stays linear.
    """
    bad = basis.copy()
    bad[2, 1, i - 1, 0] += 0.25
    return bad


def exact_moments(c):
    """Integrals of a 1D coefficient array against 1 and s over (-1, 1), as Fractions."""
    c = [Fraction(v) for v in c]
    return tuple(
        sum(v * Fraction(2, m + 1 + p) for m, v in enumerate(c) if (m + p) % 2 == 0)
        for p in (0, 1)
    )


def exact_dof_matrix(basis):
    """:func:`ddivfem.reference.dof_matrix` as exact values, each rounded once.

    The moments are the ``Fraction`` moments of the ``Poly2`` traces, and a
    corner jump is the exact value of t.Mn at the end (s = +1) of the edge
    entering the corner minus its value at the start (s = -1) of the edge
    leaving it.
    """
    cols = []
    for M in tensors(basis):
        vals = [None] * 20
        for j in range(4):
            vals[j], vals[4 + j] = exact_moments(trace_nn(M, j))
            vals[8 + j], vals[12 + j] = exact_moments(trace_shear(M, j))
        tn = [[Fraction(v) for v in restrict_to_edge(_tmn(M, j), j)] for j in range(4)]
        for c in range(4):
            start = sum(v * (-1) ** m for m, v in enumerate(tn[c]))
            vals[16 + c] = sum(tn[c - 1]) - start
        cols.append([float(v) for v in vals])
    return np.array(cols).T


def edge_tabulation(basis):
    """``(val0, val1, div0, div1, ends)`` of :class:`ddivfem.piola.EdgeTabulation`.

    Each entry is the exact moment or corner value of the ``Poly2``
    restriction to the edge, as a ``Fraction``, rounded once by ``float``.
    """
    nb = basis.shape[2]
    val0 = np.zeros((nb, 4, 3))
    val1 = np.zeros((nb, 4, 3))
    div0 = np.zeros((nb, 4, 2))
    div1 = np.zeros((nb, 4, 2))
    ends = np.zeros((nb, 4, 2, 3))
    for i, phi in enumerate(tensors(basis)):
        wx, wy = phi.div()
        for j in range(4):
            for c, p in enumerate((phi.axx, phi.axy, phi.ayy)):
                r = restrict_to_edge(p, j)
                val0[i, j, c], val1[i, j, c] = map(float, exact_moments(r))
                ends[i, j, 0, c] = float(sum(Fraction(v) * (-1) ** m for m, v in enumerate(r)))
                ends[i, j, 1, c] = float(sum(Fraction(v) for v in r))
            for c, p in enumerate((wx, wy)):
                div0[i, j, c], div1[i, j, c] = map(float, exact_moments(restrict_to_edge(p, j)))
    return val0, val1, div0, div1, ends


def edge_gauss_tabulation(basis, nq):
    """``edge_tabulation(basis)`` by an nq-point Gauss rule, one function at a time.

    The moments are sums over the rule's nodes, exact up to rounding for
    nq >= 2 since the restrictions have degree at most three; the corner
    values are evaluations of the tensor at the edge ends.
    """
    s, w = edge_gauss_points(nq)
    nb = basis.shape[2]
    val0 = np.zeros((nb, 4, 3))
    val1 = np.zeros((nb, 4, 3))
    div0 = np.zeros((nb, 4, 2))
    div1 = np.zeros((nb, 4, 2))
    corners = np.zeros((nb, 4, 3))
    for i, phi in enumerate(tensors(basis)):
        wx, wy = phi.div()
        for j in range(4):
            xh, yh = reference_edge_points(j, s)
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
    nb = basis.shape[2]
    phi = np.zeros((nb, len(rule), 3))
    divphi = np.zeros((nb, len(rule), 2))
    ddphi = np.zeros((nb, len(rule)))
    for i, p in enumerate(tensors(basis)):
        phi[i] = p.eval(xh, yh)
        wx, wy = p.div()
        divphi[i, :, 0] = wx.eval(xh, yh)
        divphi[i, :, 1] = wy.eval(xh, yh)
        ddphi[i] = p.divdiv().eval(xh, yh)
    return phi, divphi, ddphi


#: the terms (component, x derivatives, y derivatives, weight) of each entry
#: of M, div M and div div M
_TENSOR_OUTPUTS = (
    [[(0, 0, 0, 1)], [(1, 0, 0, 1)], [(2, 0, 0, 1)]],
    [[(0, 1, 0, 1), (1, 0, 1, 1)], [(1, 1, 0, 1), (2, 0, 1, 1)]],
    [[(0, 2, 0, 1), (1, 1, 1, 2), (2, 0, 2, 1)]],
)


def _dyadic(v):
    """A float as p / 2**e with integers p and e >= 0."""
    p, q = float(v).as_integer_ratio()
    return p, q.bit_length() - 1


def exact_tensor_values(grid, x, y):
    """M, div M and div div M of one coefficient grid (n, n, 3) at float points, exactly.

    Every coefficient and coordinate is a dyadic rational, so each entry is
    an integer over a power of two, a ``Fraction`` rounded once to float.
    Returns ``(values, magnitudes)``, each the list of M (..., 3), div M
    (..., 2) and div div M (...); a magnitude is the same sum over the
    absolute values of its terms, so that it bounds the rounding of any
    order of evaluation.
    """
    grid = np.asarray(grid, dtype=float)
    coef = {tuple(ijk): _dyadic(grid[tuple(ijk)]) for ijk in np.argwhere(grid).tolist()}
    shape = np.shape(x)
    values = [np.zeros(shape + (len(out),)) for out in _TENSOR_OUTPUTS]
    magnitudes = [np.zeros_like(v) for v in values]
    for at, (xv, yv) in enumerate(zip(np.ravel(x).tolist(), np.ravel(y).tolist())):
        (px, ex), (py, ey) = _dyadic(xv), _dyadic(yv)
        idx = np.unravel_index(at, shape)
        for out, value, magnitude in zip(_TENSOR_OUTPUTS, values, magnitudes):
            for entry, combination in enumerate(out):
                terms = [
                    (w * perm(i, dx) * perm(j, dy) * p * px ** (i - dx) * py ** (j - dy),
                     e + (i - dx) * ex + (j - dy) * ey)
                    for comp, dx, dy, w in combination
                    for (i, j, k), (p, e) in coef.items()
                    if k == comp and i >= dx and j >= dy
                ]
                top = max((e for _, e in terms), default=0)
                value[idx + (entry,)] = Fraction(sum(p << (top - e) for p, e in terms), 1 << top)
                magnitude[idx + (entry,)] = Fraction(
                    sum(abs(p) << (top - e) for p, e in terms), 1 << top
                )
    return (
        [values[0], values[1], values[2][..., 0]],
        [magnitudes[0], magnitudes[1], magnitudes[2][..., 0]],
    )


def ulps_off(got, values, magnitudes):
    """Largest |got - value| in units in the last place of the largest magnitude."""
    return float(np.abs(got - values).max() / np.spacing(np.max(magnitudes)))


def divdiv_matrix(basis):
    """:func:`ddivfem.reference.divdiv_matrix`: (nb, 3) coefficients on {1, x, y}."""
    out = np.zeros((basis.shape[2], 3))
    for i, phi in enumerate(tensors(basis)):
        p = phi.divdiv()
        if p.degx > 1 or p.degy > 1 or (p.degx == 1 and p.degy == 1 and p.c[1, 1] != 0.0):
            raise ValueError("div div of shape function %d is not in P1" % (i + 1))
        c = np.zeros((2, 2))
        c[: p.c.shape[0], : p.c.shape[1]] = p.c
        out[i] = [c[0, 0], c[1, 0], c[0, 1]]
    return out


# -- the corner singularity in polar form ------------------------------------------


def corner_mode_fields(alpha, C):
    """u, grad u, grad grad u and its divergence of the ex2 corner mode, by polar calculus.

    u = r^(1+a) g(psi) with g(psi) = cos((a+1) psi) + C cos((a-1) psi) and
    psi = phi - pi/4 measured from the bisector of the reentrant corner,
    phi in [-pi/2, 3pi/2).  Every field is written out by the chain rules
    in r and phi, independent of the library's complex potentials.
    """

    def polar(px, py):
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        r = np.hypot(px, py)
        phi = np.arctan2(py, px)
        phi = np.where(phi < -0.5 * np.pi, phi + 2.0 * np.pi, phi)
        return r, phi

    ap, am = alpha + 1.0, alpha - 1.0

    def g(psi):
        return np.cos(ap * psi) + C * np.cos(am * psi)

    def gp(psi):
        return -ap * np.sin(ap * psi) - C * am * np.sin(am * psi)

    def gpp(psi):
        return -ap * ap * np.cos(ap * psi) - C * am * am * np.cos(am * psi)

    def u_eval(px, py):
        r, phi = polar(px, py)
        return r**ap * g(phi - 0.25 * np.pi)

    def grad_eval(px, py):
        r, phi = polar(px, py)
        psi = phi - 0.25 * np.pi
        c, s = np.cos(phi), np.sin(phi)
        ur = ap * r**alpha * g(psi)
        uphi_r = r**alpha * gp(psi)  # u_phi / r
        return np.stack([c * ur - s * uphi_r, s * ur + c * uphi_r], axis=-1)

    def hess_eval(px, py):
        r, phi = polar(px, py)
        psi = phi - 0.25 * np.pi
        c, s = np.cos(phi), np.sin(phi)
        ra = r ** (alpha - 1.0)
        urr = ap * alpha * ra * g(psi)
        mixed = alpha * ra * gp(psi)  # u_rphi / r - u_phi / r^2
        angular = ra * (ap * g(psi) + gpp(psi))  # u_r / r + u_phiphi / r^2
        uxx = c * c * urr - 2.0 * s * c * mixed + s * s * angular
        uyy = s * s * urr + 2.0 * s * c * mixed + c * c * angular
        uxy = s * c * (urr - angular) + (c * c - s * s) * mixed
        return np.stack([uxx, uxy, uyy], axis=-1)

    # the Laplacian is D r^(a-1) cos((a-1) psi); div M is its gradient
    D = 4.0 * alpha * C
    beta = alpha - 1.0

    def div_eval(px, py):
        r, phi = polar(px, py)
        psi = phi - 0.25 * np.pi
        c, s = np.cos(phi), np.sin(phi)
        amp = D * beta * r ** (beta - 1.0)
        return np.stack(
            [
                amp * (c * np.cos(beta * psi) + s * np.sin(beta * psi)),
                amp * (s * np.cos(beta * psi) - c * np.sin(beta * psi)),
            ],
            axis=-1,
        )

    return u_eval, grad_eval, hess_eval, div_eval


# -- per-cell linears, mesh comparison and the sparse oracle -------------------


def p1_eval(coeffs_k, xh, yh):
    """Values of a per-cell linear from its {1, xh, yh} coefficients."""
    return coeffs_k[0] + coeffs_k[1] * xh + coeffs_k[2] * yh


def canonical_form(mesh, digits=12):
    """Coordinate-based canonical representation for mesh comparisons.

    Returns the cells and the labeled boundary edges as sorted lists of
    their sorted corner coordinates, independent of vertex and cell
    numbering.
    """
    p = np.round(mesh.vertices, digits)

    def sorted_rows(points):
        # sort the points within each row, then the rows, lexicographically
        order = np.lexsort((points[..., 1], points[..., 0]))
        rows = np.take_along_axis(points, order[..., None], axis=1).reshape(len(points), -1)
        order = np.lexsort(rows.T[::-1])
        return rows[order].tolist(), order

    cells, _ = sorted_rows(p[mesh.cells])
    bdry, order = sorted_rows(p[mesh.edges[mesh.boundary_edges]])
    return cells, list(zip(bdry, mesh.edge_label[mesh.boundary_edges][order].tolist()))


def as_scipy(M):
    """A copy of a :class:`ddivfem.space.Csr` as a scipy ``csr_matrix``, entries in place."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape, copy=True)
