"""The lowest-order normal-normal/effective-shear element on [-1, 1]^2.

This module holds the 20 symmetric tensor shape functions on the reference
square, the three trace operators that define their degrees of freedom
(normal-normal moment, effective transverse shear moment, corner jump of the
tangential-normal component), and the machinery to verify that the shape
functions and the degrees of freedom are exactly dual to each other.

A stack of nb tensors is one array of coefficient grids of shape
(n, n, nb, 3), degree axes first: entry [i, j, k] holds the coefficients of
x**i y**j in the components (xx, xy, yy) of tensor k.  The reference basis
is such an array with n = 4 and nb = 20 (:func:`build_reference_basis`),
and every function here takes one.

Edge and corner numbering on K = [-1, 1]^2, traversed counterclockwise::

        n4 --- e3 --- n3
        |              |
        e4            e2
        |              |
        n1 --- e1 --- n2

Each edge carries the unit tangent t of the traversal, the outward unit
normal n = (t_y, -t_x), and the linear Legendre polynomial l(s) = s in the
traversal parameter s in (-1, 1).

:func:`edge_weights` gives the edge moments and end values of a trace in s
to :func:`dof_matrix` here and to :class:`ddivfem.piola.EdgeTabulation`.
"""

import numpy as np
from numpy.polynomial import polynomial

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

# -- the polynomial space X0 -------------------------------------------------

# admissible monomial exponents (i, j) of the components xx, xy, yy
_MONOMIALS = (
    {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0)},
    {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)},
    {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3)},
)

#: COMPONENT_MASKS[i, j, c]: x**i y**j is admissible in component c
COMPONENT_MASKS = np.array(
    [[[(i, j) in allowed for allowed in _MONOMIALS] for j in range(4)] for i in range(4)]
)

# Numerators over 8 of the 20 shape tensors, one row per tensor.  The columns
# are the 20 admissible (monomial, component) pairs of COMPONENT_MASKS in
# x-degree first order; every other coefficient is zero.
_NUMERATORS = np.array([
    #   1   1   1   y   y   y  y2  y2  y3   x   x   x  xy  xy  xy xy2  x2  x2 x2y  x3
    #  xx  xy  yy  xx  xy  yy  xy  yy  yy  xx  xy  yy  xx  xy  yy  xy  xx  xy  xy  xx
    # constant and linear normal-normal moments (edges 1..4)
    [  0,  0,  4,  0,  0, -6,  0,  0,  2,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
    [  4,  0,  0,  0,  0,  0,  0,  0,  0,  6,  0,  0,  0,  0,  0,  0,  0,  0,  0, -2],
    [  0,  0,  4,  0,  0,  6,  0,  0, -2,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
    [  4,  0,  0,  0,  0,  0,  0,  0,  0, -6,  0,  0,  0,  0,  0,  0,  0,  0,  0,  2],
    [  0, -1,  0,  0,  0,  0,  0,  0,  0,  0,  0,  4,  0,  0, -4,  0,  0,  1,  0,  0],
    [  0,  1,  0,  4,  0,  0, -1,  0,  0,  0,  0,  0,  4,  0,  0,  0,  0,  0,  0,  0],
    [  0, -1,  0,  0,  0,  0,  0,  0,  0,  0,  0, -4,  0,  0, -4,  0,  0,  1,  0,  0],
    [  0,  1,  0, -4,  0,  0, -1,  0,  0,  0,  0,  0,  4,  0,  0,  0,  0,  0,  0,  0],
    # constant and linear effective-shear moments
    [  0,  0, -2,  0,  0,  2,  0,  2, -2,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
    [ -2,  0,  0,  0,  0,  0,  0,  0,  0, -2,  0,  0,  0,  0,  0,  0,  2,  0,  0,  2],
    [  0,  0, -2,  0,  0, -2,  0,  2,  2,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0],
    [ -2,  0,  0,  0,  0,  0,  0,  0,  0,  2,  0,  0,  0,  0,  0,  0,  2,  0,  0, -2],
    [  0,  1,  0,  0, -1,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0, -1,  1,  0],
    [  0, -1,  0,  0,  0,  0,  1,  0,  0,  0, -1,  0,  0,  0,  0,  1,  0,  0,  0,  0],
    [  0,  1,  0,  0,  1,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0, -1, -1,  0],
    [  0, -1,  0,  0,  0,  0,  1,  0,  0,  0,  1,  0,  0,  0,  0, -1,  0,  0,  0,  0],
    # corner jumps (corners 1..4)
    [  1,  1,  1,  0, -1, -1,  0, -1,  1, -1, -1,  0,  0,  1,  0,  0, -1,  0,  0,  1],
    [  1, -1,  1,  0,  1, -1,  0, -1,  1,  1, -1,  0,  0,  1,  0,  0, -1,  0,  0, -1],
    [  1,  1,  1,  0,  1,  1,  0, -1, -1,  1,  1,  0,  0,  1,  0,  0, -1,  0,  0, -1],
    [  1, -1,  1,  0, -1,  1,  0, -1, -1, -1,  1,  0,  0,  1,  0,  0, -1,  0,  0,  1],
])


def build_reference_basis():
    """The 20 shape functions as a fresh coefficient-grid array (4, 4, 20, 3).

    Read from the table of numerators over 8, so every coefficient is
    exact in binary floating point.
    """
    values = np.zeros((4, 4, 20, 3))
    np.moveaxis(values, 2, 3)[COMPONENT_MASKS] = _NUMERATORS.T / 8.0
    return values


def in_reference_space(basis):
    """Per tensor of a grid stack (4, 4, nb, 3): are all coefficients outside
    the component masks zero?"""
    return np.all(np.moveaxis(basis, 2, 3)[~COMPONENT_MASKS] == 0.0, axis=0)


def _derivative(c, axis):
    """Coefficient grid of the partial derivative along degree axis 0 (x) or 1 (y).

    An exact shift of the coefficients times their exponents, padded with
    zeros so that the grid keeps its shape.
    """
    n = c.shape[axis]
    lead = (slice(None),) * axis
    k = np.arange(1, n).reshape((n - 1,) + (1,) * (c.ndim - 1 - axis))
    out = np.zeros_like(c)
    out[lead + (slice(0, n - 1),)] = c[lead + (slice(1, n),)] * k
    return out


def coefficient_grids(basis):
    """Row divergence (n, n, ..., 2) and div div (n, n, ...) of grids (n, n, ..., 3).

    Takes a stack (n, n, nb, 3) or one tensor (n, n, 3).  The derivatives
    are exact coefficient shifts, and div div is the divergence of the
    divergence grid.  Every sum starts from +0.0, so a zero coefficient
    never carries a negative sign into the values.
    """
    dx, dy = _derivative(basis, 0), _derivative(basis, 1)
    div = 0.0 + dx[..., :2] + dy[..., 1:]
    divdiv = 0.0 + _derivative(div[..., 0], 0) + _derivative(div[..., 1], 1)
    return div, divdiv


def grid_function(grids):
    """f(x, y) of coefficient grids (n, n) or (n, n, k): values (...) or (..., k).

    Each component is evaluated by ``numpy.polynomial.polynomial.polyval2d``
    from its own grid cut to its nonzero extent, so a component of low
    degree costs few Horner steps.
    """
    grids = np.array(grids, dtype=float)
    cut = []
    for c in np.moveaxis(grids.reshape(grids.shape[:2] + (-1,)), 2, 0):
        i, j = np.nonzero(c)
        cut.append(c[: i.max() + 1, : j.max() + 1] if len(i) else np.zeros((1, 1)))
    polyval2d = polynomial.polyval2d
    if grids.ndim == 2:
        return lambda x, y: polyval2d(x, y, cut[0])
    return lambda x, y: np.stack([polyval2d(x, y, c) for c in cut], axis=-1)


# -- trace operators and degrees of freedom ----------------------------------

# On edge j the traversal parameter s runs over (-1, 1); the degree axis of
# the frozen coordinate, its value, and the sign linking s to the free one:
#   e1: y = -1, s = +x;  e2: x = +1, s = +y;  e3: y = +1, s = -x;  e4: x = -1, s = -y
_EDGE_RESTRICTION = ((1, -1.0, 1.0), (0, 1.0, 1.0), (1, 1.0, -1.0), (0, -1.0, -1.0))


def edge_weights(n):
    """``(moments, den, ends)`` on the n coefficients in s of a polynomial.

    Its moments against 1 and s over (-1, 1) are ``moments`` (2, n), integers,
    times the coefficients, summed and divided by ``den``; its values at
    s = -1 and +1 are ``ends`` (2, n) times them.  On dyadic coefficients the
    sums are exact, and the one division rounds the exact moment once.
    """
    # s**k integrates to 2/(k + 1) for even k; den is the lcm of the odd
    # k + 1, so for n = 4 the weights are 30, 0, 10, 0, 6 over 15
    k = np.arange(n + 1)
    den = np.lcm.reduce(k[::2] + 1)
    num = np.where(k % 2 == 0, 2 * den // (k + 1), 0.0)
    ends = np.stack([(-1.0) ** np.arange(n), np.ones(n)])
    return np.stack([num[:-1], num[1:]]), den, ends


def frame_weights(a, b):
    """Weights (..., 3) of a.M b on the components (xx, xy, yy), for vectors (..., 2)."""
    return np.stack(
        [
            a[..., 0] * b[..., 0],
            a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0],
            a[..., 1] * b[..., 1],
        ],
        axis=-1,
    )


def edge_restriction(grids):
    """Coefficients in s (4, n, ..., c) of grids (n, n, ..., c) on the four edges.

    The restriction multiplies coefficients by powers of +-1 only, so
    restrictions of dyadic grids are exact.
    """
    k = np.arange(len(grids))
    shape = (-1,) + (1,) * (grids.ndim - 2)
    return np.stack([
        np.tensordot(value**k, grids, axes=(0, axis)) * (sign**k).reshape(shape)
        for axis, value, sign in _EDGE_RESTRICTION
    ])


def edge_traces(basis):
    """Traces of a grid stack on the four edges, as coefficients in s.

    Returns ``(nn, shear, tn)``, each a C-contiguous (4, nb, n) array whose
    entry [j, k, m] is the coefficient of s**m on edge j of tensor k: the
    normal-normal trace n.Mn, the effective shear n.div M + d_t(t.Mn), and
    t.Mn.  The frame weights are integers and the restriction multiplies by
    powers of +-1 only, so traces of dyadic grids are exact.
    """
    div, _ = coefficient_grids(basis)
    # n.Mn, t.Mn and n.div M in the frame of every edge, (n, n, nb, 4, 3);
    # edge j reads the traces in its own frame j
    w_nn = frame_weights(EDGE_NORMALS, EDGE_NORMALS)
    w_tn = frame_weights(EDGE_TANGENTS, EDGE_NORMALS)
    grids = np.stack([basis @ w_nn.T, basis @ w_tn.T, div @ EDGE_NORMALS.T], axis=-1)
    j = np.arange(4)
    traces = edge_restriction(grids)[j, :, :, j]
    nn, tn, ndiv = np.ascontiguousarray(np.transpose(traces, (3, 0, 2, 1)))
    # d_t is d/ds along the traversal
    return nn, ndiv + _derivative(tn, 2), tn


def dof_matrix(basis):
    """Unnormalized dof matrix D[m, k] = dof_m(phi_k) of a grid stack, (20, nb).

    Rows: four m0 rows (constant normal-normal moment per edge), four m1
    rows (linear moment), four q0 and four q1 rows for the effective shear,
    then the four corner jumps of t.Mn: its value at the end of the edge
    entering the corner minus its value at the start of the edge leaving
    it.  The moments and end values take the weights of
    :func:`edge_weights`, so on dyadic grids every entry is the exact value
    rounded once.
    """
    nn, shear, tn = edge_traces(basis)
    moments, den, ends = edge_weights(basis.shape[0])
    rows = [np.einsum("pm,jim->pji", moments, t).reshape(8, -1) / den for t in (nn, shear)]
    start, stop = np.einsum("em,jim->eji", ends, tn)
    return np.concatenate(rows + [np.roll(stop, 1, axis=0) - start])


def verify_unisolvency(basis, tol=1e-12):
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


def trace_degrees(basis):
    """Max polynomial degree of each trace over all edges and shape functions."""
    nn, shear, _ = edge_traces(basis)
    return tuple(
        int(max(np.flatnonzero(np.any(np.abs(c) > 1e-14, axis=(0, 1))), default=-1))
        for c in (nn, shear)
    )


def divdiv_matrix(basis):
    """Coefficients of div div phi_i in the monomial basis {1, x, y}.

    Returns an array of shape (nb, 3); raises ``ValueError`` naming the
    first shape function whose image leaves P1.
    """
    dd = coefficient_grids(basis)[1]
    p1 = np.zeros(dd.shape[:2], dtype=bool)
    p1[0, 0] = p1[1, 0] = p1[0, 1] = True
    bad = np.flatnonzero(np.any(dd[~p1] != 0.0, axis=0))
    if len(bad):
        raise ValueError("div div of shape function %d is not in P1" % (bad[0] + 1))
    return np.stack([dd[0, 0], dd[1, 0], dd[0, 1]], axis=-1)


def sample_field(M, grid):
    """Sample one tensor, coefficient grids (n, n, 3), on a grid x grid lattice.

    Returns an array with one row per point:
    x, y, Mxx, Mxy, Myy, (div M)_x, (div M)_y, div div M.
    """
    s = np.linspace(-1.0, 1.0, grid)
    X, Y = np.meshgrid(s, s, indexing="ij")
    x, y = X.ravel(), Y.ravel()
    div, divdiv = coefficient_grids(M)
    return np.vstack(
        [x, y] + [polynomial.polyval2d(x, y, c) for c in (M, div, divdiv)]
    ).T
