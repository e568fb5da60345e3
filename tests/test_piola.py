"""Element maps, the tensor pushforward, and physical degrees of freedom."""

import numpy as np
import pytest

from ddivfem.mesh import EX1_CORNERS, Mesh, make_lshape, make_parallelogram_domain
from ddivfem.piola import (
    BasisCache,
    EdgeTabulation,
    ElementMap,
    GeometryError,
    batch_geometry,
    cell_geometry,
    dof_matrices,
    element_map,
    physical_dofs,
    push_tensor,
)
from ddivfem.reference import build_reference_basis
from ddivfem.space import build_dof_map
from ddivfem.system import build_system, solve_problem

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


def test_element_map_examples():
    emap = element_map(make_parallelogram_domain(SQUARE, 0), 0)
    assert np.allclose(emap.B, np.eye(2))
    assert np.allclose(emap.a, 0.0)
    assert emap.det == pytest.approx(1.0)

    emap = element_map(make_parallelogram_domain(UNIT, 0), 0)
    assert np.allclose(emap.B, 0.5 * np.eye(2))
    assert np.allclose(emap.a, [0.5, 0.5])
    assert emap.det == pytest.approx(0.25)

    # sheared benchmark cell: both in-plane directions pick up the shear
    emap = element_map(make_parallelogram_domain(EX1_CORNERS, 0), 0)
    assert np.allclose(emap.B, [[1.0, 0.0], [1.0, 1.0]])
    assert emap.det == pytest.approx(1.0)


def test_element_map_sends_reference_corners_to_cell():
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    ref_corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        mapped = emap.apply(ref_corners[:, 0], ref_corners[:, 1])
        assert np.allclose(np.transpose(mapped), mesh.vertices[mesh.cells[k]], atol=1e-14)


def test_singular_map_rejected():
    with pytest.raises(GeometryError):
        ElementMap(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    with pytest.raises(GeometryError):
        # negative determinant (orientation flip)
        ElementMap(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))


def test_push_tensor_value(basis):
    emap = element_map(make_parallelogram_domain(EX1_CORNERS, 0), 0)
    phi = basis[0]
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
    mesh = make_parallelogram_domain(SQUARE, 0)
    emap, frame = cell_geometry(mesh, 0)
    T = np.column_stack([physical_dofs(emap, frame, phi) for phi in basis])
    assert np.allclose(T, np.diag(IDENTITY_DOF_SIGNS), atol=1e-13)


def test_corner_jumps_of_pushed_edge_tensor(basis):
    # on the sheared benchmark cell the first edge tensor acquires nonzero
    # corner jumps: the pushforward preserves edge dofs, not jump values
    mesh = make_parallelogram_domain(EX1_CORNERS, 0)
    emap, frame = cell_geometry(mesh, 0)
    dofs = physical_dofs(emap, frame, basis[0])
    assert np.allclose(dofs[16:], [0.5, -0.5, 0.0, 0.0], atol=1e-13)

    # on a rectangle every non-corner tensor keeps zero jumps
    rect = make_parallelogram_domain([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]], 0)
    emap, frame = cell_geometry(rect, 0)
    for phi in basis[:16]:
        dofs = physical_dofs(emap, frame, phi)
        assert np.abs(dofs[16:]).max() < 1e-13


def test_physical_dofs_quadrature_invariance(basis):
    # the integrands are polynomials well inside the default rule's reach,
    # so raising the order must not move the values
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    emap, frame = cell_geometry(mesh, 2)
    for phi in (basis[0], basis[9], basis[18]):
        d4 = physical_dofs(emap, frame, phi, nq=4)
        d8 = physical_dofs(emap, frame, phi, nq=8)
        assert np.allclose(d4, d8, atol=1e-13)


def test_local_matrix_cache_collapses_uniform_mesh(basis):
    cache = BasisCache(basis)
    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    for k in range(mesh.num_cells):
        cache.get(*cell_geometry(mesh, k))
    assert len(cache) == 1

    lb = cache.get(*cell_geometry(mesh, 0))
    assert lb.cond < 1e3
    assert np.allclose(lb.Tinv @ lb.T, np.eye(20), atol=1e-12)


@pytest.mark.parametrize("nq", [4, 8])
def test_batched_dof_matrices_match_physical_dofs(basis, graded_mesh, nq):
    # physical_dofs is the single-cell specification of the functionals
    tab = EdgeTabulation(basis, nq)
    for mesh in (graded_mesh, make_lshape(2)):
        T = dof_matrices(batch_geometry(mesh), tab)
        assert T.shape == (mesh.num_cells, 20, 20)
        for k in range(mesh.num_cells):
            emap, frame = cell_geometry(mesh, k)
            want = np.column_stack([physical_dofs(emap, frame, phi, nq=nq) for phi in basis])
            assert np.abs(T[k] - want).max() <= 1e-13 * np.abs(want).max()


def test_cached_local_basis_is_the_single_cell_batch(basis, graded_mesh):
    cache = BasisCache(basis)
    T = dof_matrices(batch_geometry(graded_mesh), cache.edge_tabulation())
    for k in range(graded_mesh.num_cells):
        lb = cache.get(*cell_geometry(graded_mesh, k))
        assert np.abs(lb.T - T[k]).max() <= 1e-14 * np.abs(T[k]).max()
    assert len(cache) == graded_mesh.num_cells


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
    m = solve_problem(mesh, dofmap, system, cache=cache)["m"]
    return len(cache), np.abs(m).max() / diameter**2


@pytest.mark.parametrize("diameter", [1e-13, 1e6])
def test_exact_keys_keep_distinct_cells_apart_at_any_scale(diameter):
    # a similarity commutes with the Piola map, so the moments scale as L^2;
    # all 36 cells differ, and so must their cache keys
    _, want = clamped_plate_moments(1.0)
    ncached, got = clamped_plate_moments(diameter)
    assert ncached == 36
    assert got == pytest.approx(want, rel=1e-10)
