"""Element maps, the tensor pushforward, and physical degrees of freedom."""

import numpy as np
import pytest

from cellspec import (
    cell_dof_matrix,
    cell_geometry,
    element_map,
    one_cell_geometry,
    physical_dofs,
    push_tensor,
    reference_tensors,
)
from ddivfem import piola
from ddivfem.interpolation import TensorField, ddiv_gap, tensor_errors
from ddivfem.mesh import EX1_CORNERS, Mesh, make_lshape, make_parallelogram_domain
from ddivfem.piola import (
    BasisCache,
    EdgeTabulation,
    GeometryError,
    dof_matrices,
)
from ddivfem.reference import build_reference_basis
from ddivfem.space import build_dof_map, cell_coefficients, check_conformity
from ddivfem.system import build_system, solve_problem, source_load

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
UNIT = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

# physical dofs of the pushed shape tensors on the reference square meshed as
# one cell: the lattice numbering runs the north and west edges against the
# counterclockwise traversal, flipping the first-moment and mean-shear signs
IDENTITY_DOF_SIGNS = (
    [1.0] * 4
    + [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]
    + [2.0, 2.0, -2.0, -2.0]
    + [2.0 / 3.0] * 4
    + [1.0] * 4
)


@pytest.fixture(scope="module")
def basis():
    return build_reference_basis()


@pytest.fixture(scope="module")
def phis():
    return reference_tensors()


def test_element_map_examples():
    g = make_parallelogram_domain(SQUARE, 0).geometry
    assert np.allclose(g.B[0], np.eye(2))
    assert np.allclose(g.a[0], 0.0)
    assert g.det[0] == pytest.approx(1.0)

    g = make_parallelogram_domain(UNIT, 0).geometry
    assert np.allclose(g.B[0], 0.5 * np.eye(2))
    assert np.allclose(g.a[0], [0.5, 0.5])
    assert g.det[0] == pytest.approx(0.25)

    # sheared benchmark cell: both in-plane directions pick up the shear
    g = make_parallelogram_domain(EX1_CORNERS, 0).geometry
    assert np.allclose(g.B[0], [[1.0, 0.0], [1.0, 1.0]])
    assert g.det[0] == pytest.approx(1.0)


def test_element_map_sends_reference_corners_to_cell():
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    ref_corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    g = mesh.geometry
    for k in range(mesh.num_cells):
        mapped = g.a[k] + ref_corners @ g.B[k].T
        assert np.allclose(mapped, mesh.vertices[mesh.cells[k]], atol=1e-14)


def test_singular_map_rejected():
    # vertices overwritten after the mesh checked its orientation
    mesh = make_parallelogram_domain(UNIT, 0)
    mesh.vertices[mesh.cells[0, 3]] = [2.0, 0.0]
    with pytest.raises(GeometryError, match="determinant"):
        mesh.geometry
    mesh = make_parallelogram_domain(UNIT, 0)
    # negative determinant (orientation flip)
    v1, v3 = mesh.cells[0, 1], mesh.cells[0, 3]
    mesh.vertices[[v1, v3]] = mesh.vertices[[v3, v1]]
    with pytest.raises(GeometryError, match="determinant"):
        mesh.geometry


def _ones(x, y):
    return np.ones_like(x)


#: every public call that reads cell geometry, on a mesh and all-zero data
GEOMETRY_READERS = {
    "geometry": lambda mesh: mesh.geometry,
    "build_system": lambda mesh: build_system(mesh, build_dof_map(mesh), _ones),
    "source_load": lambda mesh: source_load(mesh, _ones),
    "tensor_errors": lambda mesh: tensor_errors(
        mesh, BasisCache(), np.zeros((mesh.num_cells, 20)), TensorField.from_grid(np.zeros((1, 1, 3)))
    ),
    "ddiv_gap": lambda mesh: ddiv_gap(
        mesh, BasisCache(), np.zeros((mesh.num_cells, 20)), np.zeros((mesh.num_cells, 3))
    ),
    "cell_coefficients": lambda mesh: cell_coefficients(
        mesh, build_dof_map(mesh), BasisCache(), np.zeros(build_dof_map(mesh).ndofs)
    ),
    "check_conformity": lambda mesh: check_conformity(
        mesh, build_dof_map(mesh), np.zeros((mesh.num_cells, 20))
    ),
}


@pytest.mark.parametrize("reader", list(GEOMETRY_READERS))
@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_overflowing_element_maps_rejected(scale, reader):
    # det B overflows while the corners stay finite; the library's error,
    # not numpy's overflow warning or a failed SVD in the condition check,
    # from every call that reads the geometry of the cells
    mesh = make_parallelogram_domain(np.array(EX1_CORNERS) * scale, 1)
    with pytest.raises(GeometryError, match="determinant"):
        GEOMETRY_READERS[reader](mesh)


def test_push_tensor_value(phis):
    emap = element_map(make_parallelogram_domain(EX1_CORNERS, 0), 0)
    phi = phis[0]
    xh, yh = 0.3, -0.7
    Mhat = np.array(
        [
            [phi.axx.eval(xh, yh), phi.axy.eval(xh, yh)],
            [phi.axy.eval(xh, yh), phi.ayy.eval(xh, yh)],
        ]
    )
    want = emap.B @ Mhat @ emap.B.T / emap.det
    got = push_tensor(emap, phi, xh, yh)
    assert np.allclose(got, want, atol=1e-15)
    assert got[0, 1] == pytest.approx(got[1, 0])


def test_identity_cell_dofs_are_signed_reference_norms(basis):
    T = cell_dof_matrix(make_parallelogram_domain(SQUARE, 0), 0, basis)
    assert np.allclose(T, np.diag(IDENTITY_DOF_SIGNS), atol=1e-13)


def test_identity_cell_dof_matrix_is_exactly_the_signed_diagonal():
    # on the reference square the pushforward is the identity, and the exact
    # edge moments leave no rounding off the diagonal
    square = make_parallelogram_domain(SQUARE, 0).geometry
    T = dof_matrices(square, BasisCache().edge_tabulation())
    assert np.array_equal(T[0], np.diag(IDENTITY_DOF_SIGNS))


def test_corner_jumps_of_pushed_edge_tensor(phis):
    # on the sheared benchmark cell the first edge tensor acquires nonzero
    # corner jumps: the pushforward preserves edge dofs, not jump values
    mesh = make_parallelogram_domain(EX1_CORNERS, 0)
    emap, frame = cell_geometry(mesh, 0)
    dofs = physical_dofs(emap, frame, phis[0])
    assert np.allclose(dofs[16:], [0.5, -0.5, 0.0, 0.0], atol=1e-13)

    # on a rectangle every non-corner tensor keeps zero jumps
    rect = make_parallelogram_domain([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]], 0)
    emap, frame = cell_geometry(rect, 0)
    for phi in phis[:16]:
        dofs = physical_dofs(emap, frame, phi)
        assert np.abs(dofs[16:]).max() < 1e-13


def test_physical_dofs_quadrature_invariance(phis):
    # the integrands are polynomials well inside the default rule's reach,
    # so raising the order must not move the values
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    emap, frame = cell_geometry(mesh, 2)
    for phi in (phis[0], phis[9], phis[18]):
        d4 = physical_dofs(emap, frame, phi, nq=4)
        d8 = physical_dofs(emap, frame, phi, nq=8)
        assert np.allclose(d4, d8, atol=1e-13)


def test_local_matrix_cache_collapses_uniform_mesh(basis, cell_basis):
    cache = BasisCache(basis)
    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    for k in range(mesh.num_cells):
        T, Tinv = cell_basis(cache, mesh, k)
        assert np.linalg.cond(T) < 1e3
        assert np.allclose(Tinv @ T, np.eye(20), atol=1e-12)
    assert len(cache) == 1


@pytest.mark.parametrize("nq", [4, 8])
def test_batched_dof_matrices_match_physical_dofs(basis, graded_mesh, nq):
    # physical_dofs is the single-cell specification of the functionals,
    # integrated by its own nq-point Gauss rule along the edges
    tab = EdgeTabulation(basis)
    for mesh in (graded_mesh, make_lshape(2)):
        T = dof_matrices(mesh.geometry, tab)
        assert T.shape == (mesh.num_cells, 20, 20)
        for k in range(mesh.num_cells):
            want = cell_dof_matrix(mesh, k, basis, nq=nq)
            assert np.abs(T[k] - want).max() <= 1e-13 * np.abs(want).max()


def test_cached_local_basis_is_the_single_cell_batch(basis, graded_mesh, cell_basis):
    cache = BasisCache(basis)
    tab = cache.edge_tabulation()
    T = dof_matrices(graded_mesh.geometry, tab)
    for k in range(graded_mesh.num_cells):
        T_one = dof_matrices(one_cell_geometry(graded_mesh, k), tab)[0]
        assert np.abs(T_one - T[k]).max() <= 1e-14 * np.abs(T[k]).max()
        T_spec, Tinv = cell_basis(cache, graded_mesh, k)
        assert np.abs(Tinv @ T[k] - np.eye(20)).max() <= 1e-12
        assert np.abs(Tinv @ T_spec - np.eye(20)).max() <= 1e-12
    assert len(cache) == graded_mesh.num_cells


def test_groups_keep_the_condition_check(basis, graded_mesh, monkeypatch):
    # the batch is checked before any group is stored, so a matrix over the
    # condition limit raises and leaves no entry behind, also when the
    # groups before it in first-cell order pass
    _, _, T, want = BasisCache(basis).groups(graded_mesh)
    cache = BasisCache(basis)
    cond = np.linalg.cond(T)
    assert cond[0] < cond.max()
    for limit in (0.5 * cond.min(), 0.5 * (cond[0] + cond.max())):
        monkeypatch.setattr(piola, "CONDITION_LIMIT", limit)
        with pytest.raises(GeometryError, match="condition"):
            cache.groups(graded_mesh)
        assert len(cache) == 0
    monkeypatch.undo()
    _, _, _, Tinv = cache.groups(graded_mesh)
    assert np.array_equal(Tinv, want)


def graded_rectangle(diameter, n=6, seed=7):
    """n x n rectangle mesh of the given diameter, knot gaps drawn from [0.6, 1.4]."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.4, n))])
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.4, n))])
    scale = diameter / np.hypot(xs[-1], ys[-1])
    xx, yy = np.meshgrid(scale * xs, scale * ys, indexing="ij")
    cells = [
        [i * (n + 1) + j, (i + 1) * (n + 1) + j, (i + 1) * (n + 1) + j + 1, i * (n + 1) + j + 1]
        for i in range(n)
        for j in range(n)
    ]
    return Mesh(np.column_stack([xx.ravel(), yy.ravel()]), np.array(cells))


def clamped_plate_moments(diameter):
    """Cache size and largest |tensor dof| / L^2 of the clamped plate under f = 1.

    Under a similarity every tensor dof scales like M itself: the moments
    are divided by edge length, and the shear integrals carry one derivative.
    """
    mesh = graded_rectangle(diameter)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x), cache=cache)
    m = solve_problem(mesh, dofmap, system)["m"]
    return len(cache), np.abs(m).max() / diameter**2


@pytest.mark.parametrize("diameter", [1e-13, 1e6])
def test_exact_keys_keep_distinct_cells_apart_at_any_scale(diameter):
    # a similarity commutes with the Piola map, so the moments scale as L^2;
    # all 36 cells differ, and so must their cache keys
    _, want = clamped_plate_moments(1.0)
    ncached, got = clamped_plate_moments(diameter)
    assert ncached == 36
    assert got == pytest.approx(want, rel=1e-10)


def largest_moment_over_area(diameter, n):
    """Largest |tensor dof| / L^2 of the clamped n x n graded plate under f = 1."""
    mesh = graded_rectangle(diameter, n)
    dofmap = build_dof_map(mesh)
    system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x))
    return np.abs(solve_problem(mesh, dofmap, system)["m"]).max() / diameter**2


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("diameter", [1e-15, 1e-13, 1e6, 1e8])
def test_clamped_plate_solve_is_scale_covariant(diameter, n):
    # the same plate at any size: the solve must neither reject it nor
    # return moments that are not L^2 times those at unit size
    want = largest_moment_over_area(1.0, n)
    assert largest_moment_over_area(diameter, n) == pytest.approx(want, rel=1e-10)
