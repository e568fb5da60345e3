"""Reference shape tensors: closed forms, unisolvency, traces, div div images."""

import numpy as np
import pytest

import cellspec
from cellspec import corrupted_basis
from ddivfem.piola import EdgeTabulation, VolumeTabulation
from ddivfem.polys import Poly2, poly1_deg
from ddivfem.reference import (
    DOF_DIAGONAL,
    SymTensorPoly,
    bilinear_tensor_family,
    build_reference_basis,
    corner_jump,
    divdiv_matrix,
    dof_matrix,
    dof_values,
    expand_in_basis,
    in_reference_space,
    sample_field,
    trace_degrees,
    trace_nn,
    verify_unisolvency,
)


@pytest.fixture(scope="module")
def basis():
    return build_reference_basis()


def test_dof_matrix_is_exactly_diagonal(basis):
    # every coefficient is a dyadic rational and the edge moments integrate
    # exactly, so the matrix is diagonal without rounding error
    D = dof_matrix(basis)
    assert np.array_equal(D, np.diag(DOF_DIAGONAL))


def test_unisolvency_report(basis):
    rep = verify_unisolvency(basis, tol=1e-12)
    assert rep["ok"]
    assert rep["max_deviation"] == 0.0
    assert rep["matrix"].shape == (20, 20)


def test_closed_form_entries(basis):
    # first edge tensor: only the yy component, (4 - 6y + 2y^3) / 8
    phi1 = basis[0]
    assert phi1.axx.is_zero() and phi1.axy.is_zero()
    assert np.array_equal(phi1.ayy.c, Poly2([[0.5, -0.75, 0.0, 0.25]]).c)

    # first off-diagonal bubble: only the xy component, (1 - y)(1 - x^2) / 8
    phi13 = basis[12]
    want = (1.0 - Poly2.y()) * (1.0 - Poly2.x() * Poly2.x()) * 0.125
    assert phi13.axx.is_zero() and phi13.ayy.is_zero()
    assert np.array_equal(phi13.axy.c, want.c)

    # first corner tensor: xx entry (1 - x)(1 - x^2)/8, xy entry (1 - x)(1 - y)/8
    phi17 = basis[16]
    x, y = Poly2.x(), Poly2.y()
    assert np.array_equal(phi17.axx.c, ((1.0 - x) * (1.0 - x * x) * 0.125).c)
    assert np.array_equal(phi17.axy.c, ((1.0 - x) * (1.0 - y) * 0.125).c)


def test_components_stay_in_local_space(basis):
    for phi in basis:
        assert in_reference_space(phi)


def test_edge_traces_are_linear(basis):
    deg_nn, deg_sh = trace_degrees(basis)
    assert deg_nn <= 1
    assert deg_sh <= 1


def test_interior_bubble_has_no_moment_trace(basis):
    # ninth tensor: zero normal moment on its edge, unit mean shear dof
    phi9 = basis[8]
    for edge in range(4):
        assert poly1_deg(trace_nn(phi9, edge), tol=1e-14) == -1

    vals = dof_values(phi9)
    assert vals[8] == pytest.approx(2.0)
    others = np.delete(vals, 8)
    assert np.abs(others).max() < 1e-14


def test_divdiv_images(basis):
    dd = divdiv_matrix(basis)  # raises if any image leaves P1
    assert np.array_equal(dd[0], [0.0, 0.0, 1.5])
    assert np.array_equal(dd[3], [0.0, 1.5, 0.0])
    assert np.array_equal(dd[8], [0.5, 0.0, -1.5])
    assert np.linalg.matrix_rank(dd) == 3


def test_corner_jumps_are_delta_functionals(basis):
    for j in range(4):
        for c in range(4):
            want = 1.0 if j == c else 0.0
            assert corner_jump(basis[16 + j], c) == pytest.approx(want, abs=1e-14)
    for i in range(16):
        for c in range(4):
            assert abs(corner_jump(basis[i], c)) < 1e-14


def test_bilinear_tensors_are_contained(basis):
    # all twelve monomial tensors with entries in span{1, x, y, xy} expand
    # exactly in the basis
    grid = np.linspace(-1.0, 1.0, 7)
    X, Y = np.meshgrid(grid, grid)
    for M in bilinear_tensor_family():
        coef = expand_in_basis(M, basis)
        R = basis[0] * coef[0]
        for i in range(1, 20):
            R = R + basis[i] * coef[i]
        diff = R - M
        for comp in (diff.axx, diff.axy, diff.ayy):
            assert np.abs(comp.eval(X, Y)).max() < 1e-13


def test_expand_in_basis_roundtrip(basis):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(20)
    M = basis[0] * c[0]
    for i in range(1, 20):
        M = M + basis[i] * c[i]
    assert np.allclose(expand_in_basis(M, basis), c, atol=1e-13)


def test_corrupted_basis_is_detected(basis):
    bad = corrupted_basis(basis)  # x^2 y is outside every component mask
    assert not in_reference_space(bad[6])
    rep = verify_unisolvency(bad, tol=1e-12)
    assert not rep["ok"]
    assert rep["worst_pair"][1] == 7


def test_sample_field_grid(basis):
    rows = sample_field(basis[0], 5)
    assert rows.shape == (25, 8)
    x, y = rows[:, 0], rows[:, 1]
    assert np.allclose(rows[:, 7], 1.5 * y, atol=1e-14)
    assert np.allclose(rows[:, 2], 0.0)
    # yy entry matches the closed form at the corners
    assert rows[0, 4] == pytest.approx(basis[0].ayy.eval(x[0], y[0]))


def leaves_p1(basis):
    """A copy of a basis whose fifth tensor gains x^2 y^2 in its xy component,
    so that its div div gains 8xy."""
    bad = list(basis)
    bump = np.zeros((3, 3))
    bump[2, 2] = 1.0
    phi = bad[4]
    bad[4] = SymTensorPoly(phi.axx, phi.axy + Poly2(bump), phi.ayy)
    return bad


BASES = {"reference": lambda b: b, "corrupted": corrupted_basis}


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("nq", [2, 4, 6, 10])
def test_volume_tabulation_is_the_per_function_loop(basis, kind, nq):
    b = BASES[kind](basis)
    tab = VolumeTabulation(b, nq)
    for got, want in zip((tab.phi, tab.divphi, tab.ddphi), cellspec.volume_tabulation(b, nq)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("nq", [4, 8])
def test_edge_tabulation_is_the_per_function_loop(basis, kind, nq):
    b = BASES[kind](basis)
    tab = EdgeTabulation(b, nq)
    got = (tab.val0, tab.val1, tab.div0, tab.div1, tab.ends)
    for g, want in zip(got, cellspec.edge_tabulation(b, nq)):
        assert np.array_equal(g, want)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_divdiv_matrix_is_the_per_function_loop(basis, kind):
    b = BASES[kind](basis)
    assert np.array_equal(divdiv_matrix(b), cellspec.divdiv_matrix(b))


def test_divdiv_outside_p1_names_the_shape_tensor(basis):
    for check in (divdiv_matrix, cellspec.divdiv_matrix):
        with pytest.raises(ValueError, match="shape function 5 is not in P1"):
            check(leaves_p1(basis))
