"""Gauss quadrature, the grid moments and traces, and the Poly2 oracle algebra."""

from fractions import Fraction

import numpy as np
import pytest

from cellspec import Poly2
from ddivfem.polys import gauss_rule
from ddivfem.reference import dof_matrix, edge_traces, edge_weights, trace_degrees


def test_gauss_two_point_nodes():
    rule = gauss_rule(2)
    assert np.allclose(np.sort(rule.points), [-0.5773502691896258, 0.5773502691896258])
    assert np.allclose(rule.weights, [1.0, 1.0])
    assert abs(np.sum(rule.weights) - 2.0) < 1e-15


def test_gauss_tensor_rule_exactness():
    # n points per direction are exact through degree 2n - 1
    rule = gauss_rule(4, dim=2)
    val = np.sum(rule.weights * rule.points[:, 0] ** 6 * rule.points[:, 1] ** 6)
    assert abs(val - 4.0 / 49.0) < 1e-14

    under = gauss_rule(3, dim=2)
    val = np.sum(under.weights * under.points[:, 0] ** 6 * under.points[:, 1] ** 6)
    assert abs(val - 4.0 / 49.0) > 1e-3


def test_gauss_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(17)
    with pytest.raises(ValueError):
        gauss_rule(4, dim=3)


def test_ring_operations_and_calculus():
    x, y = Poly2.x(), Poly2.y()
    p = (x * x - 1.0) * (y + 2.0)
    assert (p.degx, p.degy) == (2, 1)
    assert p.eval(0.5, -1.0) == pytest.approx(-0.75)
    assert p.dx().eval(0.5, 0.0) == pytest.approx(2.0)
    assert p.dy().eval(0.5, 3.0) == pytest.approx(-0.75)
    # (2/3 - 2) * 4
    assert p.integrate() == pytest.approx(-16.0 / 3.0)
    assert (p - p).is_zero()


def test_restrict_gives_edge_coefficients():
    # p = (1 - x^2) y in every component: on e1 (y = -1, s = x) the
    # normal-normal trace is p(s, -1), on e3 (y = 1, s = -x) it is p(-s, 1),
    # and it vanishes identically on e2 and e4 (x = +-1)
    M = np.zeros((4, 4, 1, 3))
    M[0, 1] = 1.0
    M[2, 1] = -1.0
    nn = edge_traces(M)[0][:, 0]
    assert np.array_equal(nn[0], [-1.0, 0.0, 1.0, 0.0])
    assert np.array_equal(nn[2], [1.0, 0.0, -1.0, 0.0])
    assert not nn[1].any() and not nn[3].any()
    assert trace_degrees(M)[0] == 2


def test_univariate_helpers():
    # moments of s**k over (-1, 1): 2/(k+1) for even k, 0 for odd; the
    # weight on the coefficient of s**k against s**p is the moment of s**(k+p)
    for n in (1, 4):
        moments, den, ends = edge_weights(n)
        for p in (0, 1):
            for k in range(n):
                want = Fraction(2, k + p + 1) if (k + p) % 2 == 0 else 0
                assert Fraction(moments[p, k]) / int(den) == want
        # values at s = -1 and s = +1
        assert np.array_equal(ends, [(-1.0) ** np.arange(n), np.ones(n)])

    # x^2 in yy: m0 on e1 is the integral of s^2 over (-1, 1), m1 of s^3;
    # x in yy: m1 on e1 is the integral of s * s
    M = np.zeros((4, 4, 2, 3))
    M[2, 0, 0, 2] = 1.0
    M[1, 0, 1, 2] = 1.0
    D = dof_matrix(M)
    assert D[0, 0] == 2.0 / 3.0 and D[4, 0] == 0.0
    assert D[0, 1] == 0.0 and D[4, 1] == 2.0 / 3.0

    # a vanishing trace has degree -1
    assert trace_degrees(np.zeros((4, 4, 1, 3))) == (-1, -1)


def test_eval_matches_direct_summation():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((4, 3))
    p = Poly2(c)
    xs = rng.uniform(-1.0, 1.0, size=11)
    ys = rng.uniform(-1.0, 1.0, size=11)
    direct = sum(c[i, j] * xs**i * ys**j for i in range(4) for j in range(3))
    assert np.allclose(p.eval(xs, ys), direct, atol=1e-13)


def test_integrate_is_exact_for_monomials():
    # moments of t**k over [-1,1]: 2/(k+1) for even k, 0 for odd
    c = np.zeros((3, 5))
    c[2, 4] = 1.0
    assert Poly2(c).integrate() == (2.0 / 3.0) * (2.0 / 5.0)
    c = np.zeros((2, 2))
    c[1, 1] = 1.0
    assert Poly2(c).integrate() == 0.0

