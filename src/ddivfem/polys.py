"""Exact polynomial calculus on the reference square and Gauss quadrature.

Bivariate polynomials are stored as dense coefficient grids c[i, j] for the
monomial x**i * y**j.  All ring operations (sum, product, derivative,
antiderivative, definite integrals over [-1,1]^2) are carried out on the
coefficients, so polynomial identities hold to machine precision and, for
integer-valued grids, exactly.
"""

import numpy as np

#: largest per-variable degree a product is allowed to produce
HARD_DEGREE_CAP = 64


class DegreeBoundError(ValueError):
    """Raised when an operation would exceed a polynomial degree bound."""


def _trim(c):
    """Drop all-zero trailing rows/columns of a coefficient grid."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    nz = np.nonzero(c)
    if len(nz[0]) == 0:
        return np.zeros((1, 1))
    return c[: nz[0].max() + 1, : nz[1].max() + 1].copy()


class Poly2:
    """Bivariate polynomial p(x, y) = sum_ij c[i, j] x**i y**j.

    Parameters
    ----------
    coeffs : array_like
        Two dimensional coefficient grid; axis 0 is the x-degree.
    bound : int, optional
        Per-variable degree cap for results of products involving this
        polynomial.  Exceeding it raises ``DegreeBoundError`` rather than
        truncating.
    """

    def __init__(self, coeffs, bound=None):
        self.c = _trim(coeffs)
        if bound is None:
            bound = max(self.c.shape[0] - 1, self.c.shape[1] - 1, 8)
        if self.c.shape[0] - 1 > bound or self.c.shape[1] - 1 > bound:
            raise DegreeBoundError(
                "coefficient grid of shape %s exceeds bound %d" % (self.c.shape, bound)
            )
        self.bound = int(bound)

    # -- constructors ------------------------------------------------------

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

    # -- basic queries -----------------------------------------------------

    @property
    def degx(self):
        return self.c.shape[0] - 1

    @property
    def degy(self):
        return self.c.shape[1] - 1

    def is_zero(self, tol=0.0):
        return np.all(np.abs(self.c) <= tol)

    def __repr__(self):
        return "Poly2(degx=%d, degy=%d)" % (self.degx, self.degy)

    # -- ring operations ---------------------------------------------------

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
        return Poly2(c, bound=max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return Poly2(-self.c, bound=self.bound)

    def __sub__(self, other):
        return self + (-self._promote(other))

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly2):
            return Poly2(self.c * float(other), bound=self.bound)
        bound = max(self.bound, other.bound)
        dx = self.degx + other.degx
        dy = self.degy + other.degy
        if max(dx, dy) > bound or max(dx, dy) > HARD_DEGREE_CAP:
            raise DegreeBoundError(
                "product degree (%d, %d) exceeds bound %d" % (dx, dy, bound)
            )
        c = np.zeros((dx + 1, dy + 1))
        for i in range(self.c.shape[0]):
            for j in range(self.c.shape[1]):
                if self.c[i, j] != 0.0:
                    c[i : i + other.c.shape[0], j : j + other.c.shape[1]] += (
                        self.c[i, j] * other.c
                    )
        return Poly2(c, bound=bound)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def dx(self):
        """Partial derivative with respect to x."""
        if self.degx == 0:
            return Poly2.zero()
        c = self.c[1:, :] * np.arange(1, self.c.shape[0])[:, None]
        return Poly2(c, bound=self.bound)

    def dy(self):
        """Partial derivative with respect to y."""
        if self.degy == 0:
            return Poly2.zero()
        c = self.c[:, 1:] * np.arange(1, self.c.shape[1])[None, :]
        return Poly2(c, bound=self.bound)

    def integrate(self):
        """Exact integral over the reference square [-1, 1]^2."""
        return float(np.einsum("ij,i,j->", self.c, _moments(self.degx), _moments(self.degy)))

    def eval(self, x, y):
        """Evaluate at points; broadcasts like numpy."""
        return np.polynomial.polynomial.polyval2d(np.asarray(x), np.asarray(y), self.c)


def _moments(deg):
    """Moments integral of t**k over [-1, 1] for k = 0..deg."""
    k = np.arange(deg + 1)
    m = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    return m


# -- quadrature --------------------------------------------------------------


class QuadRule:
    """Quadrature nodes and weights.

    Attributes
    ----------
    points : ndarray
        Shape (n,) in 1D, (n, 2) in 2D.
    weights : ndarray
        Shape (n,).
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def __len__(self):
        return len(self.weights)


def gauss_rule(n, dim=1):
    """Tensor Gauss-Legendre rule with n points per direction on [-1,1]^dim.

    Exact for polynomials of degree 2n-1 in each variable.
    """
    if not 1 <= n <= 16:
        raise ValueError("gauss_rule supports 1 <= n <= 16, got %d" % n)
    x, w = np.polynomial.legendre.leggauss(n)
    if dim == 1:
        return QuadRule(x, w)
    if dim == 2:
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return QuadRule(pts, W.ravel())
    raise ValueError("dim must be 1 or 2")
