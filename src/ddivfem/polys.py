"""Gauss quadrature on [-1, 1] and the reference square [-1, 1]^2."""

import numpy as np
from numpy.polynomial import legendre


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
    x, w = legendre.leggauss(n)
    if dim == 1:
        return QuadRule(x, w)
    if dim == 2:
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        return QuadRule(pts, W.ravel())
    raise ValueError("dim must be 1 or 2")
