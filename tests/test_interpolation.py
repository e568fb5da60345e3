"""Tensor interpolation: reproduction, commuting identity, convergence order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cellspec
from ddivfem.interpolation import (
    TensorField,
    commuting_residual,
    ddiv_gap,
    interpolate_ddiv,
    interpolation_error_study,
    project_p1,
    tensor_errors,
)
from ddivfem.mesh import (
    EX1_CORNERS,
    SHAPE_REGULARITY_LIMIT,
    Mesh,
    make_lshape,
    make_parallelogram_domain,
)
from ddivfem.piola import BasisCache
from ddivfem.problems import get_example
from ddivfem.space import build_dof_map, cell_coefficients, check_conformity
from ddivfem.system import NeumannData, neumann_constraints

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


def random_p1_field(rng):
    comps = [rng.standard_normal((2, 2)) * [[1.0, 1.0], [1.0, 0.0]] for _ in range(3)]
    return TensorField.from_grid(np.stack(comps, axis=-1))


def interp_error(mesh, field, cache):
    dofmap = build_dof_map(mesh)
    mcoef = interpolate_ddiv(mesh, dofmap, field)
    coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
    errs = tensor_errors(mesh, cache, coeffs, field)
    return float(np.sqrt(errs["M"])), dofmap, mcoef


def test_linear_tensors_reproduce_exactly(basis_cache):
    rng = np.random.default_rng(31)
    meshes = [make_parallelogram_domain(EX1_CORNERS, 2), make_lshape(1)]
    for mesh in meshes:
        for _ in range(3):
            field = random_p1_field(rng)
            err, _, _ = interp_error(mesh, field, basis_cache)
            assert err < 1e-11


def test_bilinear_entries_do_not_survive_shear(basis_cache):
    # the pull-back of a bilinear entry onto a sheared cell leaves the local
    # space, so exact reproduction is limited to entrywise linear tensors
    grid = np.zeros((2, 2, 3))
    grid[1, 1, 0] = 1.0
    field = TensorField.from_grid(grid)
    err, _, _ = interp_error(make_parallelogram_domain(EX1_CORNERS, 2), field, basis_cache)
    assert err > 1e-4


@st.composite
def grid_and_points(draw):
    """A standard normal grid (d + 1, d + 1, 3) of degree d = 0..4 with some
    entries zeroed (-0.0 where the draw was negative), and 8 points (2, 8)."""
    d = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(arrays(np.bool_, (d + 1, d + 1, 3)))
    return rng.standard_normal((d + 1, d + 1, 3)) * keep, rng.uniform(-2.0, 2.0, (2, 8))


@settings(max_examples=100, deadline=None)
@given(case=grid_and_points())
def test_field_from_grid_is_the_poly2_field(case):
    # the field and the Poly2 calculus, which sums in another order, each
    # within 8 ulps of the largest magnitude of the exact values
    grid, (x, y) = case
    got, poly2 = TensorField.from_grid(grid), cellspec.tensor_field(grid)
    values, magnitudes = cellspec.exact_tensor_values(grid, x, y)
    for name, value, magnitude in zip(("m", "div", "divdiv"), values, magnitudes):
        for field in (got, poly2):
            out = getattr(field, name)(x, y)
            assert out.shape == value.shape
            assert cellspec.ulps_off(out, value, magnitude) <= 8.0


def test_random_poly_draws_three_grids_in_component_order():
    field = TensorField.random_poly(np.random.default_rng(5), deg=2)
    rng = np.random.default_rng(5)
    want = cellspec.tensor_field(np.stack([rng.standard_normal((3, 3)) for _ in range(3)], axis=-1))
    x, y = np.array([0.3, -0.7]), np.array([0.1, 0.9])
    assert field.m(x, y).tobytes() == want.m(x, y).tobytes()
    with pytest.raises(ValueError, match="at least 0"):
        TensorField.random_poly(np.random.default_rng(5), deg=-1)
    with pytest.raises(ValueError, match="shape"):
        TensorField.from_grid(np.zeros((3, 3)))


def test_interpolant_is_conforming(basis_cache):
    rng = np.random.default_rng(41)
    field = TensorField.random_poly(rng, deg=3)
    mesh = make_lshape(2)
    _, dofmap, mcoef = interp_error(mesh, field, basis_cache)
    coeffs = cell_coefficients(mesh, dofmap, basis_cache, mcoef)
    report = check_conformity(mesh, dofmap, coeffs, cache=basis_cache)
    assert report["max_violation"] < 1e-9


def test_p1_projection_coefficients():
    mesh = make_parallelogram_domain(SQUARE, 0)
    coeffs = project_p1(mesh, lambda x, y: x**2)
    assert np.allclose(coeffs[0], [1.0 / 3.0, 0.0, 0.0], atol=1e-14)
    coeffs = project_p1(mesh, lambda x, y: 2.0 + 3.0 * x - y)
    assert np.allclose(coeffs[0], [2.0, 3.0, -1.0], atol=1e-14)


def test_commuting_identity_on_both_domains(basis_cache):
    rng = np.random.default_rng(13)
    for mesh in (make_parallelogram_domain(EX1_CORNERS, 3), make_lshape(2)):
        dofmap = build_dof_map(mesh)
        for _ in range(5):
            field = TensorField.random_poly(rng, deg=3)
            res, norm = commuting_residual(mesh, dofmap, field, cache=basis_cache)
            assert res <= 1e-9 * (1.0 + norm)


def test_commuting_identity_with_trigonometric_field(basis_cache):
    # the identity is structural, not a polynomial accident; for smooth
    # non-polynomial data both sides are still equal because the shear dofs
    # capture exactly the boundary terms of the divergence theorem
    def m(x, y):
        return np.stack(
            [np.sin(x) * np.cos(y), np.sin(x + y), np.cos(x) * np.sin(y)], axis=-1
        )

    def div(x, y):
        wx = np.cos(x) * np.cos(y) + np.cos(x + y)
        wy = np.cos(x + y) + np.cos(x) * np.cos(y)
        return np.stack([wx, wy], axis=-1)

    def divdiv(x, y):
        return -np.sin(x) * np.cos(y) - 2.0 * np.sin(x + y) - np.cos(x) * np.sin(y)

    field = TensorField(m, div, divdiv)
    mesh = make_lshape(2)
    dofmap = build_dof_map(mesh)
    res, norm = commuting_residual(mesh, dofmap, field, cache=basis_cache, nq=8)
    assert res <= 1e-9 * (1.0 + norm)


BASE_MESHES = {"ex1-2": make_parallelogram_domain(EX1_CORNERS, 2), "lshape-2": make_lshape(2)}


@st.composite
def affine_images(draw):
    """A base mesh moved by x -> A x + b, with A = s R(t1) diag(1, k) R(t2).

    The stretch k stays below SHAPE_REGULARITY_LIMIT over the largest cell
    condition number of the base mesh, so every image is shape regular; the
    scale s runs over 1e-15..1e15 and the shift b up to 1e4 s.
    """
    base = BASE_MESHES[draw(st.sampled_from(sorted(BASE_MESHES)))]
    B = base.geometry.B
    k = draw(st.floats(1.0, 0.99 * SHAPE_REGULARITY_LIMIT / np.linalg.cond(B).max()))
    t1, t2 = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    s = 10.0 ** draw(st.floats(-15.0, 15.0))
    b = s * np.array([draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4))])
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    A = s * np.array([[c1, -s1], [s1, c1]]) @ np.diag([1.0, k]) @ np.array([[c2, -s2], [s2, c2]])
    return Mesh(base.vertices @ A.T + b, base.cells)


@settings(max_examples=100, deadline=None)
@given(mesh=affine_images(), seed=st.integers(0, 2**32 - 1))
def test_interpolant_commutes_and_conforms_on_affine_meshes(mesh, seed):
    # the commuting identity and the continuity of the interpolant are exact
    # on any parallelogram mesh.  Rounding leaves continuity gaps of the size
    # of the largest dof, and div div errors of eps |M| / h^2 over the area,
    # times 1 + |x| / h for the rounding of the vertices relative to h
    field = TensorField.random_poly(np.random.default_rng(seed), deg=3)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    mcoef = interpolate_ddiv(mesh, dofmap, field)
    coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
    report = check_conformity(mesh, dofmap, coeffs, cache=cache)
    assert report["max_violation"] <= 1e-13 * np.abs(mcoef).max()

    res, _ = commuting_residual(mesh, dofmap, field, cache=cache)
    size = np.abs(field.m(*mesh.vertices.T)).max()
    area = 4.0 * mesh.geometry.det.sum()
    h = mesh.h_cell.min()
    assert res <= 1e-12 * size * np.sqrt(area) / h**2 * (1.0 + np.abs(mesh.vertices).max() / h)


def test_interpolation_error_second_order(basis_cache):
    rng = np.random.default_rng(5)
    field = TensorField.random_poly(rng, deg=3)
    rows = interpolation_error_study(field, range(5))
    level, h, err, eoc, commres, ddnorm = rows[-1]
    assert level == 4
    assert 1.8 <= eoc <= 2.2
    assert commres <= 1e-9 * (1.0 + ddnorm)
    # errors decay monotonically once past the coarsest mesh
    errs = [r[2] for r in rows]
    assert all(a > b for a, b in zip(errs[1:], errs[2:]))


def test_interpolation_study_builds_one_geometry_record_per_level(geometry_builds):
    # the coefficients, the errors and the commuting residual of a level all
    # read the record of its mesh
    field = TensorField.random_poly(np.random.default_rng(5), deg=3)
    interpolation_error_study(field, range(4))
    assert geometry_builds == [4**level for level in range(4)]


@pytest.mark.parametrize("level", [1, 3, 5])
def test_non_finite_dof_is_named(level):
    # the ex2 tensor is singular at the re-entrant corner; its shear
    # moments there are NaN and must not come back as dofs
    mesh = make_lshape(level)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="q0 moment on edge"):
        interpolate_ddiv(mesh, build_dof_map(mesh), get_example("ex2").field)


def test_non_finite_corner_jump_is_named():
    # the edge dofs read the field on (edges, points) arrays, the corner
    # jumps on one flat array of cell corners; this field fails only there
    def m(x, y):
        vals = np.stack([x, y, x + y], axis=-1)
        return vals if np.ndim(x) > 1 else np.full_like(vals, np.nan)

    field = TensorField(m, lambda x, y: np.stack([x, y], axis=-1))
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    k, c = np.argwhere(dofmap.jump_id >= 0)[0]
    want = "dof %d is not finite: the field's corner jump at local corner %d of cell %d"
    with pytest.raises(ValueError, match=want % (dofmap.jump_id[k, c], c, k)):
        interpolate_ddiv(mesh, dofmap, field)


# -- malformed input ------------------------------------------------------------


@pytest.mark.parametrize(
    "coeffs, p1",
    [((3, 20), (3, 3)), ((5, 20), (5, 3)), ((4, 21), (4, 2))],
    ids=["short", "long", "wide"],
)
def test_integrals_reject_per_cell_arrays_of_another_shape(coeffs, p1):
    # a longer array was integrated over its first rows, a shorter one
    # failed inside numpy
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    cache, field = BasisCache(), TensorField.from_grid(np.zeros((1, 1, 3)))
    want = r"expected %s of shape \(ncells, %d\) = \(4, %d\), got shape \(%d, %d\)"
    with pytest.raises(ValueError, match=want % (("raw coefficients", 20, 20) + coeffs)):
        tensor_errors(mesh, cache, np.zeros(coeffs), field)
    with pytest.raises(ValueError, match=want % (("raw coefficients", 20, 20) + coeffs)):
        ddiv_gap(mesh, cache, np.zeros(coeffs), np.zeros((4, 3)))
    with pytest.raises(ValueError, match=want % (("p1 coefficients", 3, 3) + p1)):
        ddiv_gap(mesh, cache, np.zeros((4, 20)), np.zeros(p1))


def test_a_field_without_div_is_named():
    full = TensorField.random_poly(np.random.default_rng(3), deg=1)
    field = TensorField(full.m, None, full.divdiv)
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    with pytest.raises(ValueError, match="the field's div$"):
        interpolate_ddiv(mesh, dofmap, field)
    with pytest.raises(ValueError, match="the field's div$"):
        neumann_constraints(mesh, dofmap, NeumannData(field))


def test_a_field_without_divdiv_is_named():
    full = TensorField.random_poly(np.random.default_rng(3), deg=1)
    field = TensorField(full.m, full.div)
    mesh = make_lshape(1)
    with pytest.raises(ValueError, match="the field's divdiv$"):
        commuting_residual(mesh, build_dof_map(mesh), field)
    with pytest.raises(ValueError, match="the field's divdiv$"):
        interpolation_error_study(field, range(2))
