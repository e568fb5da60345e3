"""Reference shape tensors: closed forms, unisolvency, traces, div div images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cellspec
from cellspec import Poly2, corrupted_basis
from ddivfem.piola import BasisCache, EdgeTabulation, VolumeTabulation
from ddivfem.reference import (
    COMPONENT_MASKS,
    DOF_DIAGONAL,
    build_reference_basis,
    divdiv_matrix,
    dof_matrix,
    edge_traces,
    in_reference_space,
    sample_field,
    trace_degrees,
    verify_unisolvency,
)


@pytest.fixture(scope="module")
def basis():
    return build_reference_basis()


def test_table_is_the_poly2_construction(basis):
    # the numerator table against the 20 tensors built from Poly2 products
    want = cellspec.stack_grids(cellspec.reference_tensors())
    assert basis.shape == (4, 4, 20, 3)
    assert np.array_equal(basis, want)
    assert not np.any(np.signbit(basis) & (basis == 0.0))
    # every call returns a fresh array
    basis2 = build_reference_basis()
    basis2[0, 0, 0, 2] = 7.0
    assert build_reference_basis()[0, 0, 0, 2] == 0.5


def test_dof_matrix_is_exactly_diagonal(basis):
    # every coefficient is a dyadic rational and the edge moments integrate
    # exactly, so the matrix is diagonal without rounding error
    D = dof_matrix(basis)
    assert np.array_equal(D, np.diag(DOF_DIAGONAL))
    # and so is that of the basis a BasisCache holds by default
    assert np.array_equal(dof_matrix(BasisCache().basis), D)


def test_unisolvency_report(basis):
    rep = verify_unisolvency(basis, tol=1e-12)
    assert rep["ok"]
    assert rep["max_deviation"] == 0.0
    assert rep["matrix"].shape == (20, 20)


def test_closed_form_entries(basis):
    def grid(p):
        out = np.zeros((4, 4))
        out[: p.c.shape[0], : p.c.shape[1]] = p.c
        return out

    # first edge tensor: only the yy component, (4 - 6y + 2y^3) / 8
    assert not basis[:, :, 0, :2].any()
    assert np.array_equal(basis[:, :, 0, 2], grid(Poly2([[0.5, -0.75, 0.0, 0.25]])))

    # first off-diagonal bubble: only the xy component, (1 - y)(1 - x^2) / 8
    want = (1.0 - Poly2.y()) * (1.0 - Poly2.x() * Poly2.x()) * 0.125
    assert not basis[:, :, 12, 0].any() and not basis[:, :, 12, 2].any()
    assert np.array_equal(basis[:, :, 12, 1], grid(want))

    # first corner tensor: xx entry (1 - x)(1 - x^2)/8, xy entry (1 - x)(1 - y)/8
    x, y = Poly2.x(), Poly2.y()
    assert np.array_equal(basis[:, :, 16, 0], grid((1.0 - x) * (1.0 - x * x) * 0.125))
    assert np.array_equal(basis[:, :, 16, 1], grid((1.0 - x) * (1.0 - y) * 0.125))


def test_components_stay_in_local_space(basis):
    assert in_reference_space(basis).all()
    # the space X0 has dimension 20
    assert COMPONENT_MASKS.sum() == 20


def test_edge_traces_are_linear(basis):
    deg_nn, deg_sh = trace_degrees(basis)
    assert deg_nn <= 1
    assert deg_sh <= 1


def test_interior_bubble_has_no_moment_trace(basis):
    # ninth tensor: zero normal moment on its edge, unit mean shear dof
    nn = edge_traces(basis)[0]
    assert not np.any(np.abs(nn[:, 8]) > 1e-14)

    vals = dof_matrix(basis)[:, 8]
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
    jumps = dof_matrix(basis)[16:]
    for j in range(4):
        for c in range(4):
            want = 1.0 if j == c else 0.0
            assert jumps[c, 16 + j] == pytest.approx(want, abs=1e-14)
    assert np.abs(jumps[:, :16]).max() < 1e-14


def bilinear_tensor_family():
    """The 12 symmetric tensors with one bilinear monomial in one component."""
    fam = np.zeros((4, 4, 12, 3))
    for n, (c, (i, j)) in enumerate(
        (c, ij) for c in range(3) for ij in [(0, 0), (1, 0), (0, 1), (1, 1)]
    ):
        fam[i, j, n, c] = 1.0
    return fam


def expand_in_basis(M):
    """Coefficients c (nb_basis, nb) with sum_i c_i phi_i = M, via the normalized dofs."""
    return dof_matrix(M) / DOF_DIAGONAL[:, None]


def test_bilinear_tensors_are_contained(basis):
    # all twelve monomial tensors with entries in span{1, x, y, xy} expand
    # exactly in the basis
    fam = bilinear_tensor_family()
    R = np.einsum("ijkc,kn->ijnc", basis, expand_in_basis(fam))
    grid = np.linspace(-1.0, 1.0, 7)
    X, Y = np.meshgrid(grid, grid)
    diff = np.polynomial.polynomial.polyval2d(X, Y, R - fam)
    assert np.abs(diff).max() < 1e-13


def test_expand_in_basis_roundtrip(basis):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(20)
    M = (np.moveaxis(basis, 2, 3) @ c)[:, :, None, :]
    assert np.allclose(expand_in_basis(M)[:, 0], c, atol=1e-13)


def test_corrupted_basis_is_detected(basis):
    bad = corrupted_basis(basis)  # x^2 y is outside every component mask
    assert np.flatnonzero(~in_reference_space(bad)).tolist() == [6]
    rep = verify_unisolvency(bad, tol=1e-12)
    assert not rep["ok"]
    assert rep["worst_pair"][1] == 7


def test_sample_field_grid(basis):
    rows = sample_field(basis[:, :, 0], 5)
    assert rows.shape == (25, 8)
    x, y = rows[:, 0], rows[:, 1]
    assert np.allclose(rows[:, 7], 1.5 * y, atol=1e-14)
    assert np.allclose(rows[:, 2], 0.0)
    # yy entry matches the closed form at the corners
    phi1 = cellspec.reference_tensors()[0]
    assert rows[0, 4] == pytest.approx(phi1.ayy.eval(x[0], y[0]))


def leaves_p1(basis):
    """A copy of a basis whose fifth tensor gains x^2 y^2 in its xy component,
    so that its div div gains 8xy."""
    bad = basis.copy()
    bad[2, 2, 4, 1] += 1.0
    return bad


BASES = {"reference": lambda b: b, "corrupted": corrupted_basis}


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("nq", [2, 4, 6, 10])
def test_volume_tabulation_is_the_per_function_loop(basis, kind, nq):
    # the tabulation and the per-function Poly2 loop, which sums in another
    # order, each within 8 ulps of the largest magnitude of the exact values
    b = BASES[kind](basis)
    tab = VolumeTabulation(b, nq)
    exact = [cellspec.exact_tensor_values(b[:, :, i], tab.xh, tab.yh) for i in range(b.shape[2])]
    loop = cellspec.volume_tabulation(b, nq)
    for k, got in enumerate((tab.phi, tab.divphi, tab.ddphi)):
        values = np.stack([v[k] for v, _ in exact])
        magnitudes = np.stack([m[k] for _, m in exact])
        assert got.shape == values.shape
        assert cellspec.ulps_off(got, values, magnitudes) <= 8.0
        assert cellspec.ulps_off(loop[k], values, magnitudes) <= 8.0


def assert_exact_edge_tabulation(b):
    # every entry is the exact Fraction moment or corner value of the Poly2
    # restriction, rounded once
    tab = EdgeTabulation(b)
    got = (tab.val0, tab.val1, tab.div0, tab.div1, tab.ends)
    for g, want in zip(got, cellspec.edge_tabulation(b)):
        assert g.shape == want.shape
        assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("nq", [4, 8])
def test_edge_tabulation_is_the_per_function_loop(basis, kind, nq):
    # the exact moments byte for byte, and the nq-point Gauss loop over the
    # functions to rounding
    b = BASES[kind](basis)
    assert_exact_edge_tabulation(b)
    tab = EdgeTabulation(b)
    got = (tab.val0, tab.val1, tab.div0, tab.div1, tab.ends)
    for g, want in zip(got, cellspec.edge_gauss_tabulation(b, nq)):
        assert g.shape == want.shape
        assert np.abs(g - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", sorted(BASES))
def test_divdiv_matrix_is_the_per_function_loop(basis, kind):
    b = BASES[kind](basis)
    assert np.array_equal(divdiv_matrix(b), cellspec.divdiv_matrix(b))


@pytest.mark.parametrize("kind", sorted(BASES))
def test_dof_matrix_is_the_per_function_loop(basis, kind):
    # both bases are dyadic, so the library is the exact matrix rounded once,
    # byte for byte; the per-function loop sums float moments 2 / (k + 1)
    # with a 1-D dot whose order depends on the BLAS kernel, so it is held
    # to 4 ulps of the largest entry
    b = BASES[kind](basis)
    exact = cellspec.exact_dof_matrix(b)
    assert dof_matrix(b).tobytes() == exact.tobytes()
    loop = cellspec.dof_matrix(b)
    assert np.abs(loop - exact).max() <= 4 * np.spacing(np.abs(exact).max())


def test_divdiv_outside_p1_names_the_shape_tensor(basis):
    for check in (divdiv_matrix, cellspec.divdiv_matrix):
        with pytest.raises(ValueError, match="shape function 5 is not in P1"):
            check(leaves_p1(basis))


# numerators over 8 of random dyadic grids, zero on about half of the entries
_DYADIC_STACKS = arrays(
    np.int64,
    st.tuples(st.just(4), st.just(4), st.integers(1, 6), st.just(3)),
    elements=st.integers(-64, 64) | st.just(0),
)


@settings(max_examples=60, deadline=None)
@given(numerators=_DYADIC_STACKS)
def test_dof_matrix_of_random_dyadic_grids_is_the_poly2_oracle(numerators):
    # coefficients inside and outside the component masks alike; every entry
    # is the exact Fraction moment or corner jump of the Poly2 traces,
    # rounded once
    values = numerators / 8.0
    assert cellspec.exact_dof_matrix(values).tobytes() == dof_matrix(values).tobytes()


@settings(max_examples=60, deadline=None)
@given(numerators=_DYADIC_STACKS)
def test_edge_tabulation_of_random_dyadic_grids_is_the_exact_moments(numerators):
    assert_exact_edge_tabulation(numerators / 8.0)
