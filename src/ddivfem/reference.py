"""The lowest-order normal-normal/effective-shear element on [-1, 1]^2.

This module builds the 20 symmetric tensor shape functions on the reference
square, the three trace operators that define their degrees of freedom
(normal-normal moment, effective transverse shear moment, corner jump of the
tangential-normal component), and the machinery to verify that the shape
functions and the degrees of freedom are exactly dual to each other.

Edge and corner numbering on K = [-1, 1]^2, traversed counterclockwise::

        n4 --- e3 --- n3
        |              |
        e4            e2
        |              |
        n1 --- e1 --- n2

Each edge carries the unit tangent t of the traversal, the outward unit
normal n = (t_y, -t_x), and the linear Legendre polynomial l(s) = s in the
traversal parameter s in (-1, 1).
"""

import numpy as np

from .polys import Poly2, poly1_int, poly1_mul, poly1_deg

# corner coordinates, counterclockwise from (-1, -1)
CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])

# per edge: (start corner, end corner), both as indices into CORNERS
EDGE_CORNERS = [(0, 1), (1, 2), (2, 3), (3, 0)]

EDGE_TANGENTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

#: diagonal of the unnormalized degree-of-freedom matrix: <1,1> = 2 on the
#: four constant-moment rows of each trace, <l,l> = 2/3 on the linear rows,
#: 1 on the corner-jump rows
DOF_DIAGONAL = np.array([2.0] * 4 + [2.0 / 3.0] * 4 + [2.0] * 4 + [2.0 / 3.0] * 4 + [1.0] * 4)

DOF_NAMES = (
    ["m0_e%d" % (j + 1) for j in range(4)]
    + ["m1_e%d" % (j + 1) for j in range(4)]
    + ["q0_e%d" % (j + 1) for j in range(4)]
    + ["q1_e%d" % (j + 1) for j in range(4)]
    + ["jump_n%d" % (j + 1) for j in range(4)]
)


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


def build_reference_basis():
    """Return the 20 shape functions as a list of SymTensorPoly.

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


# -- the polynomial space X0 -------------------------------------------------

# admissible monomial exponents (i, j) per component
_XX_MONOMIALS = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0)}
_XY_MONOMIALS = {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)}
_YY_MONOMIALS = {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3)}


def in_reference_space(M, tol=0.0):
    """Check component-wise monomial support against the space definition."""
    for comp, allowed in ((M.axx, _XX_MONOMIALS), (M.axy, _XY_MONOMIALS), (M.ayy, _YY_MONOMIALS)):
        for i in range(comp.c.shape[0]):
            for j in range(comp.c.shape[1]):
                if abs(comp.c[i, j]) > tol and (i, j) not in allowed:
                    return False
    return True


# -- trace operators ---------------------------------------------------------

# On edge j the traversal parameter s runs over (-1, 1); the frozen variable,
# its value, and the sign linking s to the free coordinate:
#   e1: y = -1, s = +x;  e2: x = +1, s = +y;  e3: y = +1, s = -x;  e4: x = -1, s = -y
_EDGE_RESTRICTION = [("y", -1.0, +1.0), ("x", 1.0, +1.0), ("y", 1.0, -1.0), ("x", -1.0, -1.0)]


def _restrict_to_edge(p, edge):
    """1D coefficients (in the traversal parameter s) of Poly2 p on an edge."""
    var, val, sign = _EDGE_RESTRICTION[edge]
    c = p.restrict(var, val)
    if sign < 0:
        c = c * np.where(np.arange(len(c)) % 2 == 0, 1.0, -1.0)
    return c


def trace_nn(M, edge):
    """Normal-normal trace n.Mn on an edge, as 1D coefficients in s."""
    n = EDGE_NORMALS[edge]
    p = n[0] * n[0] * M.axx + 2.0 * n[0] * n[1] * M.axy + n[1] * n[1] * M.ayy
    return _restrict_to_edge(p, edge)


def trace_shear(M, edge):
    """Effective shear trace n.div M + d_t(t.Mn) on an edge, in s coefficients."""
    n = EDGE_NORMALS[edge]
    t = EDGE_TANGENTS[edge]
    wx, wy = M.div()
    ndiv = n[0] * wx + n[1] * wy
    tmn = (
        t[0] * n[0] * M.axx
        + (t[0] * n[1] + t[1] * n[0]) * M.axy
        + t[1] * n[1] * M.ayy
    )
    dt_tmn = t[0] * tmn.dx() + t[1] * tmn.dy()
    return _restrict_to_edge(ndiv + dt_tmn, edge)


def corner_jump(M, c):
    """Jump of t.Mn at corner c: value from the edge ending there minus the
    value from the edge starting there (counterclockwise traversal)."""
    end_edge = (c - 1) % 4
    start_edge = c
    A = M.at_corner(c)
    t_in, n_in = EDGE_TANGENTS[end_edge], EDGE_NORMALS[end_edge]
    t_out, n_out = EDGE_TANGENTS[start_edge], EDGE_NORMALS[start_edge]
    return float(t_in @ A @ n_in - t_out @ A @ n_out)


# -- degrees of freedom ------------------------------------------------------


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
        vals[4 + j] = poly1_int(poly1_mul(nn, s))
        vals[8 + j] = poly1_int(sh)
        vals[12 + j] = poly1_int(poly1_mul(sh, s))
    for c in range(4):
        vals[16 + c] = corner_jump(M, c)
    return vals


def dof_matrix(basis=None):
    """Unnormalized 20x20 matrix D[i, j] = dof_i(phi_j)."""
    if basis is None:
        basis = build_reference_basis()
    D = np.zeros((20, 20))
    for j, phi in enumerate(basis):
        D[:, j] = dof_values(phi)
    return D


def verify_unisolvency(basis=None, tol=1e-12):
    """Check duality of shape functions and normalized degrees of freedom.

    Returns
    -------
    report : dict
        ``matrix`` (normalized), ``max_deviation`` from the identity, ``ok``,
        and when not ok the worst offending (dof, shape index) pair.
    """
    D = dof_matrix(basis)
    N = D / DOF_DIAGONAL[:, None]
    dev = np.abs(N - np.eye(20))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    report = {
        "matrix": N,
        "max_deviation": float(dev[i, j]),
        "ok": bool(dev[i, j] <= tol),
        "worst_pair": (DOF_NAMES[i], int(j) + 1),
    }
    return report


def trace_degrees(basis=None):
    """Max polynomial degree of each trace over all edges and shape functions."""
    if basis is None:
        basis = build_reference_basis()
    deg_nn = max(
        poly1_deg(trace_nn(phi, j), tol=1e-14) for phi in basis for j in range(4)
    )
    deg_sh = max(
        poly1_deg(trace_shear(phi, j), tol=1e-14) for phi in basis for j in range(4)
    )
    return deg_nn, deg_sh


def _derivative(c, axis):
    """Coefficient grid of the partial derivative along degree axis 0 (x) or 1 (y).

    The exact shift of :meth:`Poly2.dx` / :meth:`Poly2.dy`, padded with
    zeros so that the grid keeps its shape.
    """
    n = c.shape[axis]
    lead = (slice(None),) * axis
    k = np.arange(1, n).reshape((n - 1,) + (1,) * (c.ndim - 1 - axis))
    out = np.zeros_like(c)
    out[lead + (slice(0, n - 1),)] = c[lead + (slice(1, n),)] * k
    return out


def coefficient_grids(basis):
    """A basis stacked as zero-padded coefficient grids, degree axes first.

    Returns ``(values, div, divdiv)`` of shapes (n, n, nb, 3), (n, n, nb, 2)
    and (n, n, nb) for nb shape tensors: entry [i, j] is the coefficient of
    x**i y**j of the components (xx, xy, yy), of the row divergence and of
    div div.  One ``np.polynomial.polynomial.polyval2d`` call evaluates a
    grid for the whole basis, in the Horner order of :meth:`Poly2.eval`;
    the zero padding and the sums, which start from +0.0 as in
    :meth:`Poly2.__add__`, leave every value bit for bit as the
    per-function :meth:`SymTensorPoly.eval`, ``div`` and ``divdiv`` give.
    """
    comps = [p.c for phi in basis for p in (phi.axx, phi.axy, phi.ayy)]
    n = max(max(c.shape) for c in comps)
    values = np.zeros((n, n, len(comps)))
    for k, c in enumerate(comps):
        values[: c.shape[0], : c.shape[1], k] = c
    values = values.reshape(n, n, len(basis), 3)
    dx, dy = _derivative(values, 0), _derivative(values, 1)
    div = 0.0 + dx[..., :2] + dy[..., 1:]
    divdiv = (
        0.0
        + _derivative(dx[..., 0], 0)
        + 2.0 * _derivative(dx[..., 1], 1)
        + _derivative(dy[..., 2], 1)
    )
    return values, div, divdiv


def divdiv_matrix(basis=None):
    """Coefficients of div div phi_i in the monomial basis {1, x, y}.

    Returns an array of shape (nb, 3); raises ``ValueError`` naming the
    first shape function whose image leaves P1.
    """
    if basis is None:
        basis = build_reference_basis()
    dd = coefficient_grids(basis)[2]
    p1 = np.zeros(dd.shape[:2], dtype=bool)
    p1[0, 0] = p1[1, 0] = p1[0, 1] = True
    bad = np.flatnonzero(np.any(dd[~p1] != 0.0, axis=0))
    if len(bad):
        raise ValueError("div div of shape function %d is not in P1" % (bad[0] + 1))
    return np.stack([dd[0, 0], dd[1, 0], dd[0, 1]], axis=-1)


def bilinear_tensor_family():
    """The 12 symmetric tensors with one bilinear monomial in one component."""
    fam = []
    for ci in range(3):
        for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            c = np.zeros((2, 2))
            c[i, j] = 1.0
            comps = [Poly2.zero(), Poly2.zero(), Poly2.zero()]
            comps[ci] = Poly2(c)
            fam.append(SymTensorPoly(*comps))
    return fam


def expand_in_basis(M, basis=None):
    """Coefficients c with sum_i c_i phi_i = M, via the normalized dofs."""
    if basis is None:
        basis = build_reference_basis()
    return dof_values(M) / DOF_DIAGONAL


def sample_field(M, grid):
    """Sample a SymTensorPoly on a grid x grid lattice over the square.

    Returns an array with one row per point:
    x, y, Mxx, Mxy, Myy, (div M)_x, (div M)_y, div div M.
    """
    s = np.linspace(-1.0, 1.0, grid)
    X, Y = np.meshgrid(s, s, indexing="ij")
    x, y = X.ravel(), Y.ravel()
    wx, wy = M.div()
    dd = M.divdiv()
    return np.column_stack(
        [
            x,
            y,
            M.axx.eval(x, y),
            M.axy.eval(x, y),
            M.ayy.eval(x, y),
            wx.eval(x, y),
            wy.eval(x, y),
            dd.eval(x, y),
        ]
    )
