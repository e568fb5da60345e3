"""Assembly, boundary data, constraints, and the saddle point solver."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cellspec import as_scipy, element_map, p1_eval, tensors
from test_piola import graded_rectangle
import ddivfem.linsolve as linsolve
from ddivfem import GeometryError, TensorField, piola, space
from ddivfem.interpolation import project_p1
from ddivfem.linsolve import ResidualError, SingularSystemError, solve_saddle
from ddivfem.mesh import EX1_CORNERS, Mesh, make_lshape, make_parallelogram_domain, refine_uniform
from ddivfem.polys import gauss_rule
from ddivfem.problems import get_example, solve_example
from ddivfem.reference import divdiv_matrix
from ddivfem.space import Csr, build_dof_map, cell_coefficients, check_conformity
from ddivfem.system import (
    DirichletData,
    MaterialError,
    MaterialLaw,
    NeumannData,
    SaddleSystem,
    build_system,
    dirichlet_load,
    neumann_interior_vertices,
    solve_problem,
    source_load,
)


# -- material law ------------------------------------------------------------


def compliance_gram(law):
    """Matrix of the quadratic form M -> C^-1 M : M in (Mxx, Myy, Mxy)."""
    basis = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)]
    G = np.zeros((3, 3))
    for a, (axx, axy, ayy) in enumerate(basis):
        cxx, cxy, cyy = law.apply_compliance(axx, axy, ayy)
        for b, (bxx, bxy, byy) in enumerate(basis):
            G[a, b] = cxx * bxx + 2.0 * cxy * bxy + cyy * byy
    return G


def test_material_validation():
    with pytest.raises(MaterialError):
        MaterialLaw(E=-1.0, nu=0.3)
    with pytest.raises(MaterialError):
        MaterialLaw(E=np.nan, nu=0.2)
    with pytest.raises(MaterialError):
        MaterialLaw(E=1.0, nu=0.5)
    with pytest.raises(MaterialError):
        MaterialLaw(E=1.0, nu=-1.0)
    # compliances that overflow, or whose ratio double precision cannot resolve
    for E, nu in [(1e-320, 0.2), (1e-310, 0.0), (1e300, np.nextafter(-1.0, 0.0))]:
        with pytest.raises(MaterialError):
            MaterialLaw(E=E, nu=nu)
    # the parameters are keyword-only
    with pytest.raises(TypeError):
        MaterialLaw("isotropic", E=2.0, nu=0.3)


def test_identity_material_is_passthrough():
    law = MaterialLaw()
    assert law.apply_compliance(1.5, -0.25, 0.75) == (1.5, -0.25, 0.75)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 40, 9)) * 10.0 ** rng.integers(-300, 300, (3, 40, 9))
    assert all(np.array_equal(c, x) for c, x in zip(law.apply_compliance(*m), m))


def test_isotropic_compliance():
    # at nu = 0 the law collapses to scaling by 1/E
    law = MaterialLaw(E=4.0, nu=0.0)
    assert np.allclose(law.apply_compliance(2.0, 1.0, -3.0), (0.5, 0.25, -0.75))

    law = MaterialLaw(E=200.0, nu=0.3)
    G = compliance_gram(law)
    assert np.allclose(G, G.T)
    assert np.all(np.linalg.eigvalsh(G) > 0)


#: moduli from subnormal to overflow, and the values beyond
MODULI = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300, 1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(E=MODULI, nu=st.one_of(st.floats(-1.0, 0.5), st.floats(allow_nan=True)))
def test_every_law_is_rejected_or_positive_definite(E, nu):
    # the library's own error or a law whose compliance form is finite and
    # positive definite: never numpy's LinAlgError or a RuntimeWarning
    try:
        law = MaterialLaw(E=E, nu=nu)
    except MaterialError:
        return
    G = compliance_gram(law)
    assert np.all(np.isfinite(G))
    assert np.linalg.eigvalsh(G).min() > 0.0


# -- loads --------------------------------------------------------------------


def test_source_load_of_constant():
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    F = source_load(mesh, lambda x, y: np.ones_like(x))
    F = F.reshape(-1, 3)
    for k in range(mesh.num_cells):
        det = element_map(mesh, k).det
        assert np.allclose(F[k], [4.0 * det, 0.0, 0.0], atol=1e-13)


def _divdiv_integral(mesh, cache, coeffs, g):
    """sum_K int_K (div div M_h) g dx by quadrature."""
    dd_map = divdiv_matrix(cache.basis)
    rule = gauss_rule(4, dim=2)
    xh, yh = rule.points[:, 0], rule.points[:, 1]
    total = 0.0
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        dd = dd_map.T @ coeffs[k] / emap.det
        x, y = emap.apply(xh, yh)
        total += emap.det * np.sum(rule.weights * p1_eval(dd, xh, yh) * g(x, y))
    return total


def test_dirichlet_load_is_the_boundary_pairing_for_affine_data(basis_cache):
    # with clamped data g the first block of the right-hand side represents
    # -<tr(M), g> on the boundary; integrating by parts against an affine g
    # (whose Hessian vanishes) gives dot(G, m) = -sum_K int (div div M_h) g
    # for every member of the discrete space
    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    dofmap = build_dof_map(mesh)
    g = lambda x, y: 0.7 - 0.3 * x + 0.45 * y
    grad = lambda x, y: np.stack([-0.3 + 0.0 * x, 0.45 + 0.0 * y], axis=-1)
    load = dirichlet_load(mesh, dofmap, DirichletData(g, grad))

    rng = np.random.default_rng(9)
    for _ in range(3):
        m = rng.standard_normal(dofmap.ndofs)
        coeffs = cell_coefficients(mesh, dofmap, basis_cache, m)
        rhs = -_divdiv_integral(mesh, basis_cache, coeffs, g)
        assert np.dot(load, m) == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dirichlet_load_quadratic_data_needs_hessian_term(basis_cache):
    # for quadratic g the pairing picks up the volume term int M_h : hess(g)
    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    dofmap = build_dof_map(mesh)
    g = lambda x, y: x**2 + x * y - 0.5 * y**2
    grad = lambda x, y: np.stack([2.0 * x + y, x - y], axis=-1)
    H = np.array([[2.0, 1.0], [1.0, -1.0]])
    load = dirichlet_load(mesh, dofmap, DirichletData(g, grad))

    phi_int = np.array(
        [[p.axx.integrate(), p.axy.integrate(), p.ayy.integrate()] for p in tensors(basis_cache.basis)]
    )
    rng = np.random.default_rng(29)
    m = rng.standard_normal(dofmap.ndofs)
    coeffs = cell_coefficients(mesh, dofmap, basis_cache, m)

    hess_term = 0.0
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        mi = phi_int.T @ coeffs[k]
        Mint = emap.B @ np.array([[mi[0], mi[1]], [mi[1], mi[2]]]) @ emap.B.T
        hess_term += np.sum(Mint * H)
    rhs = -(_divdiv_integral(mesh, basis_cache, coeffs, g) - hess_term)
    assert np.dot(load, m) == pytest.approx(rhs, rel=1e-12)


# -- essential constraints -----------------------------------------------------


def test_neumann_constraint_count_and_junctions():
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    exact = get_example("ex2")
    system = build_system(
        mesh, dofmap, exact.f, dirichlet=exact.dirichlet, neumann=exact.neumann
    )
    # 12 Neumann edges x 4 dofs, plus one jump pin per (cell, corner) pair
    # at the 11 boundary vertices interior to the Neumann part
    assert system.L.shape == (67, dofmap.ndofs)
    # one-hot rows
    assert np.allclose(system.L.data, 1.0)

    interior_n = neumann_interior_vertices(mesh)
    assert len(interior_n) == 11
    coords = mesh.vertices[sorted(interior_n)]
    for bad in ([-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]):
        assert not np.any(np.all(np.isclose(coords, bad), axis=1))


def test_solution_satisfies_essential_constraints(basis_cache):
    run = solve_example(get_example("ex2"), 1, cache=basis_cache)
    system, result = run["system"], run["result"]
    gap = np.abs(system.L @ result["m"] - system.d).max()
    assert gap < 1e-10 * max(1.0, np.abs(system.d).max())


def test_saddle_matrix_is_symmetric():
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    exact = get_example("ex2")
    system = build_system(
        mesh, dofmap, exact.f, dirichlet=exact.dirichlet, neumann=exact.neumann
    )
    K, rhs = system.full()
    gap = np.abs(K - K.T).max()
    assert gap < 1e-12 * np.abs(K).max()
    assert K.shape[0] == len(rhs)


# -- moment balance --------------------------------------------------------------


def test_divdiv_of_solution_is_projected_source(basis_cache):
    # the second equation forces div div M_h = P1 projection of f cell by cell
    exact = get_example("ex1")
    run = solve_example(exact, 1, cache=basis_cache)
    mesh, dofmap, result = run["mesh"], run["dofmap"], run["result"]
    coeffs = cell_coefficients(mesh, dofmap, basis_cache, result["m"])
    dd_map = divdiv_matrix(basis_cache.basis)
    p1 = project_p1(mesh, exact.f)
    scale = np.abs(p1).max()
    for k in range(mesh.num_cells):
        emap = element_map(mesh, k)
        dd = dd_map.T @ coeffs[k] / emap.det
        assert np.allclose(dd, p1[k], atol=1e-10 * scale)


# -- linear solver ------------------------------------------------------------------


def test_sparse_and_dense_solvers_agree(basis_cache):
    # one-element clamped problem: small enough for an independent dense solve
    exact = get_example("ex1")
    mesh = exact.mesh(0)
    dofmap = build_dof_map(mesh)
    system = build_system(mesh, dofmap, exact.f, dirichlet=exact.dirichlet)
    K, rhs = system.full()

    x_dense = np.linalg.solve(K.toarray(), rhs)
    x_sparse, info = solve_saddle(K, rhs)
    assert info["path"] == "hybrid"
    scale = np.abs(x_dense).max()
    assert np.abs(x_sparse - x_dense).max() < 1e-10 * scale


def _plate_system(problem, level, cache=None):
    exact = get_example(problem)
    mesh = exact.mesh(level)
    dofmap = build_dof_map(mesh)
    return build_system(
        mesh, dofmap, exact.f, material=exact.material, dirichlet=exact.dirichlet,
        neumann=exact.neumann, cache=cache,
    )


def test_singular_system_raises():
    system = _plate_system("ex1", 1)
    system.A_loc = np.zeros_like(system.A_loc)
    K, rhs = system.full()
    with pytest.raises(SingularSystemError, match="singular local saddle block"):
        solve_saddle(K, rhs)
    # a plain copy of K has lost the cell structure the solve needs
    with pytest.raises(ValueError, match="cell structure"):
        solve_saddle(sp.csc_matrix(K), rhs)


@pytest.mark.parametrize("rtol", [-1.0, 0.0, np.nan, np.inf])
def test_rtol_must_be_positive_and_finite(rtol, monkeypatch):
    system = _plate_system("ex1", 1)

    def unreachable(S, where):
        raise AssertionError("the multiplier system was factored")

    monkeypatch.setattr(linsolve, "_factor", unreachable)
    with pytest.raises(ValueError, match="rtol must be"):
        solve_saddle(system, system.rhs(), rtol=rtol)


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_blocks_and_matrix_solve_alike(problem, level, basis_cache):
    # the matrix of full() is read only for the cell structure it carries
    system = _plate_system(problem, level, cache=basis_cache)
    K, rhs = system.full()
    x, info = solve_saddle(system, system.rhs())
    x_K, info_K = solve_saddle(K, rhs)
    assert np.array_equal(x, x_K)
    assert info == info_K


def _blocks_and_matrix(system):
    K, _ = system.full()
    return linsolve.HybridSolver(system), K


@pytest.mark.parametrize("which", ["ex2-2", "graded"])
def test_cellwise_apply_is_the_matrix_product(which, graded_mesh):
    if which == "graded":
        mesh = graded_mesh
        dofmap = build_dof_map(mesh)
        system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x))
    else:
        system = _plate_system("ex2", 2)
        assert system.L.shape[0] > 0
    hybrid, K = _blocks_and_matrix(system)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(K.shape[0])
        want = K @ x
        assert np.abs(hybrid.apply(x) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_block_norm_is_the_matrix_norm(problem, level):
    hybrid, K = _blocks_and_matrix(_plate_system(problem, level))
    assert hybrid.norm_inf() == pytest.approx(spla.norm(K, np.inf), rel=1e-14)


@pytest.mark.parametrize("diameter", [1e-15, 1e8])
def test_block_norm_bounds_the_matrix_norm_from_below(diameter):
    # under a similarity the rows of A may dominate, and their off-diagonal
    # entries are left out of the bound, which only makes the residual stricter
    mesh = graded_rectangle(diameter)
    dofmap = build_dof_map(mesh)
    system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x))
    hybrid, K = _blocks_and_matrix(system)
    norm = hybrid.norm_inf()
    assert 0.0 < norm <= (1.0 + 1e-14) * spla.norm(K, np.inf)


def _three_plates(which, graded_mesh):
    if which == "graded":
        # every cell its own group
        dofmap = build_dof_map(graded_mesh)
        return build_system(graded_mesh, dofmap, lambda x, y: np.ones_like(x))
    problem, level = which.split("-")
    return _plate_system(problem, int(level))


def _uncondensed_system(hybrid):
    """The whole multiplier system S = Lam bsr(W[group]) Lam^T, rows as in Lam.

    W is the tensor block of each local inverse, on the 20 slots per cell
    that the rows of Lam use.
    """
    nk = len(hybrid.group)
    ptr = np.arange(nk + 1)
    W = hybrid.inv[hybrid.group, :20, :20]
    M = sp.bsr_matrix((W, ptr[:-1], ptr), shape=(20 * nk, 20 * nk))
    Lam = as_scipy(hybrid.Lam)
    return (Lam @ M @ Lam.T).toarray()


@pytest.mark.parametrize("which", ["ex1-3", "ex2-2", "ex2-3", "graded"])
def test_multiplier_system_is_the_block_product(which, graded_mesh, monkeypatch):
    # the root front is the Schur complement, in the cell-level product, of
    # every row eliminated below it: the rows inside the blocks of every
    # level, the 2 x 2 patches of level 1 first
    system = _three_plates(which, graded_mesh)
    if which.startswith("ex2"):
        assert system.L.shape[0] > 0
    factored, factor = [], linsolve._factor

    def recorded(S, where):
        factored.append(S.copy())
        return factor(S, where)

    monkeypatch.setattr(linsolve, "_factor", recorded)
    hybrid = linsolve.HybridSolver(system)
    info = hybrid.info()
    S = _uncondensed_system(hybrid)
    (root,) = hybrid.levels[-1].inner
    top = root[0]
    rest = np.setdiff1d(np.arange(len(S)), top)
    assert (len(top), len(rest)) == (info["root_n"], info["condensed_n"])
    assert info["levels"] > 0 and hybrid.levels[-1].outer[0].shape == (1, 0)
    # diag(S), summed once over the nonzeros of Lam, on every row
    _, diagonal = linsolve._cell_updates(hybrid.Lam, hybrid.group, hybrid.inv)
    assert np.allclose(diagonal, np.diag(S), rtol=1e-14, atol=0.0)
    S_rt = S[np.ix_(rest, top)]
    want = S[np.ix_(top, top)] - S_rt.T @ np.linalg.solve(S[np.ix_(rest, rest)], S_rt)
    (got,) = factored[-1]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("which", ["ex1-3", "ex2-3", "graded"])
def test_pivot_ratios_are_those_of_the_uncondensed_system(which, graded_mesh):
    # eliminating the blocks level by level, the patches first and the root
    # last, is one symmetric elimination of S itself: every pivot is read
    # against the diagonal of S
    system = _three_plates(which, graded_mesh)
    hybrid = linsolve.HybridSolver(system)
    S = _uncondensed_system(hybrid)
    # the elimination order: the inner rows of every level
    order = np.concatenate([inner.ravel() for level in hybrid.levels for inner in level.inner])
    assert np.array_equal(np.sort(order), np.arange(len(S)))
    pivots = np.diag(np.linalg.cholesky(S[np.ix_(order, order)])) ** 2
    want = pivots / np.diag(S)[order]
    assert np.allclose(hybrid.ratio[order], want, rtol=1e-8, atol=0.0)
    assert hybrid.pivot_ratio == pytest.approx(want.min(), rel=1e-8)


@pytest.mark.parametrize("which", ["ex1-3", "ex2-3", "graded"])
def test_solve_then_apply_gives_back_the_right_hand_side(which, graded_mesh):
    system = _three_plates(which, graded_mesh)
    hybrid = linsolve.HybridSolver(system)
    b = np.random.default_rng(3).standard_normal(system.ndofs + system.nu + system.L.shape[0])
    x = hybrid.solve(b)
    r = b - hybrid.apply(x)
    assert linsolve.residual_norm(r, x, b, hybrid.norm_inf()) <= 1e-12


def test_solver_keeps_no_block_per_cell():
    # ex2 level 3 has 192 cells in 3 groups and 48 patches in 18 level-1
    # groups; the local blocks and their inverses are held once per cell
    # group, the elimination of every level once per group of its blocks
    hybrid = linsolve.HybridSolver(_plate_system("ex2", 3))
    nk, npatch = len(hybrid.group), len(hybrid.levels[0].group)
    assert npatch == 48
    assert hybrid.local.shape == hybrid.inv.shape == (3, 23, 23)
    assert len(hybrid.levels[0].M) == len(hybrid.levels[0].W) == 18
    for level in hybrid.levels:
        ngroups = level.group.max() + 1
        assert len(level.inner) == len(level.outer) == len(level.M) == len(level.W) == ngroups
        for g, (inner, outer, M, W) in enumerate(zip(level.inner, level.outer, level.M, level.W)):
            nI, nO = inner.shape[1], outer.shape[1]
            assert len(inner) == len(outer) == np.count_nonzero(level.group == g)
            assert M.shape == (nI, nI) and W.shape == (nI, nO)
    for name, value in vars(hybrid).items():
        if isinstance(value, np.ndarray):
            assert value.shape[:1] != (nk,) or value.shape[1:] != (23, 23), name
            assert value.shape[:1] != (npatch,) or value.ndim < 3, name
        assert not (sp.issparse(value) and value.format == "bsr"), name


def test_fronts_keep_the_size_of_their_blocks():
    # at ex2 level 3 the patches without Neumann rows eliminate their 17
    # inner rows with a 17 x 17 M, beside the patches on the Neumann edge,
    # and the M and W of every level hold nI (nI + nO) entries per block,
    # with nI the rows inside the block but inside no block below, and nO
    # the other rows that meet it and that no block below holds
    hybrid, picked = _covered(_plate_system("ex2", 3))
    nc, nk = hybrid.Lam.shape[0] - hybrid.L.shape[0], len(hybrid.group)
    patches = hybrid.levels[0]
    sizes = {M.shape for M in patches.M}
    assert (17, 17) in sizes and len(sizes) > 1
    for inner, M in zip(patches.inner, patches.M):
        assert (inner >= nc).any() or M.shape == (17, 17)
    cells = _row_cells(hybrid)
    below = np.zeros(len(cells), dtype=bool)
    for level, (blocks, of_cell) in zip(hybrid.levels, _lifted(picked, nk)):
        owner = _row_owners(cells, of_cell, len(blocks))
        nI = np.bincount(owner[(owner >= 0) & ~below], minlength=len(blocks))
        front = np.zeros(len(blocks), dtype=int)
        for row_cells in (c for c, done in zip(cells, below) if not done):
            front[[u for u in set(of_cell[list(row_cells)]) if u < len(blocks)]] += 1
        below |= owner >= 0
        want = np.sum(nI * front)
        got = sum(len(inner) * (M.size + W.size) for inner, M, W in zip(level.inner, level.M, level.W))
        assert got == want


def test_build_peak_stays_within_three_times_the_kept_factors():
    # each front is freed once factored, each level's updates once the
    # level above has summed them, and no update is padded; the traced peak
    # of the ex2 level 4 build, from its start, is 2.3 times the bytes of
    # the M and W kept (3.5 with updates padded to their level's widest unit
    # and every level's updates held until SuperLU)
    plate = _plate_system("ex2", 4)
    tracemalloc.start()
    try:
        hybrid = linsolve.HybridSolver(plate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for level in hybrid.levels for a in level.M + level.W)
    assert peak <= 3 * kept, peak / kept


def test_updates_are_handed_up_at_their_real_size(monkeypatch):
    # every cell update is k x k on the k rows that meet the cells of its
    # group, and every update a level hands up is nO x nO on the outer rows
    # of its group: no unit is padded to the widest of its level
    handed, merge = [], linsolve._merge

    def recorded(*args):
        handed.append(merge(*args))
        return handed[-1]

    monkeypatch.setattr(linsolve, "_merge", recorded)
    hybrid = linsolve.HybridSolver(_plate_system("ex2", 3))
    nb = hybrid.Lam.shape[0]
    (outer, group, U), _ = linsolve._cell_updates(hybrid.Lam, hybrid.group, hybrid.inv)
    assert len(U) == group.max() + 1
    for g, u in enumerate(U):
        k = np.count_nonzero(outer[group == g] < nb, axis=1)
        assert u.shape == (k[0], k[0]) and np.all(k == k[0])
    assert len(handed) == len(hybrid.levels) == 5
    for level, _, _, (up, group, U) in handed:
        # the blocks of the level come first, in the groups of their fronts
        n = len(level.group)
        up, group = up[:n], group[:n]
        assert np.array_equal(group, level.group)
        for g, (rows, u) in enumerate(zip(level.outer, U)):
            nO = rows.shape[1]
            assert u.shape == (nO, nO)
            assert np.array_equal(up[group == g, :nO], rows) and np.all(up[group == g, nO:] == nb)


def test_roots_keep_only_the_updates_they_use(monkeypatch):
    # the units that no block of a level takes go up to the level above as
    # they are, with copies of the updates of their own groups only, each on
    # its real rows, all of them rows that no block holds yet; no level's
    # whole update array is held until then
    handed, merge = [], linsolve._merge

    def recorded(*args):
        handed.append(merge(*args))
        return handed[-1]

    monkeypatch.setattr(linsolve, "_merge", recorded)
    hybrid = linsolve.HybridSolver(_plate_system("ex2", 3))
    nb = hybrid.Lam.shape[0]
    held, carried = np.zeros(nb, dtype=bool), 0
    for level, rows, _, (outer, group, U) in handed:
        held[rows] = True
        n = len(level.group)
        carried += len(group) - n
        assert np.array_equal(np.unique(group), np.arange(len(U)))
        for g in np.unique(group[n:]):
            assert U[g].base is None
        for row, g in zip(outer, group):
            k = len(U[g])
            assert not held[row[:k]].any() and np.all(row[k:] == nb)
    # one square of the L-shape waits beside the pair of the other two
    assert carried == 1 and held.all()


def clamped_plate(mesh):
    """m and u of the clamped plate under f = 1 on a mesh."""
    dofmap = build_dof_map(mesh)
    result = solve_problem(mesh, dofmap, build_system(mesh, dofmap, lambda x, y: np.ones_like(x)))
    return result["m"], result["u"]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-15, 1e-13, 1e-8, 1e8])
def test_clamped_plate_solves_at_any_scale(scale, level):
    # under x -> s x the clamped plate with f = 1 has the deflection s^4 u
    # in the same pulled-back coefficients; unscaled local inversions used
    # to turn S indefinite at some of these scales
    def deflection(s):
        return clamped_plate(make_parallelogram_domain(EX1_CORNERS * s, level))[1]

    want = deflection(1.0)
    got = deflection(scale) / scale**4
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(
    log_s=st.floats(-15.0, 8.0),
    angle=st.floats(-np.pi, np.pi),
    t=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
def test_clamped_plate_answer_is_similarity_covariant(log_s, angle, t):
    # under x -> s R x + s t the moments become s^2 R M R^T and the
    # deflection s^4 u: every tensor dof, read in the frame of its own edge,
    # scales like s^2, and the pulled-back deflection coefficients like s^4
    base = make_parallelogram_domain(EX1_CORNERS, 2)
    s, c, r = 10.0**log_s, np.cos(angle), np.sin(angle)
    mesh = Mesh(s * (base.vertices @ np.array([[c, r], [-r, c]])) + s * np.array(t), base.cells)
    m_want, u_want = clamped_plate(base)
    m, u = clamped_plate(mesh)
    assert np.abs(m / s**2 - m_want).max() <= 1e-12 * np.abs(m_want).max()
    assert np.abs(u / s**4 - u_want).max() <= 1e-12 * np.abs(u_want).max()


@pytest.mark.parametrize("scale", [1e78, 1e150])
def test_overflowing_compliance_block_rejected(scale):
    # the element maps are finite, but the compliance block of every cell
    # overflows; the library's error, not numpy's overflow warning
    mesh = make_parallelogram_domain(EX1_CORNERS * scale, 1)
    with pytest.raises(GeometryError, match="compliance block of cell 0 is not finite"):
        build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))


def test_solve_problem_groups_the_cells_once(basis_cache, monkeypatch):
    # assembly, the solve, the coefficients and the conformity report share
    # one grouping, and the last two are bit for bit those of the public calls
    exact = get_example("ex2")
    mesh = exact.mesh(2)
    dofmap = build_dof_map(mesh)
    calls = []
    grouping = piola.cell_groups

    def counted(keys):
        calls.append(len(keys))
        return grouping(keys)

    monkeypatch.setattr(piola, "cell_groups", counted)
    monkeypatch.setattr(space, "cell_groups", counted)
    system = build_system(
        mesh, dofmap, exact.f, material=exact.material, dirichlet=exact.dirichlet,
        neumann=exact.neumann, cache=basis_cache,
    )
    result = solve_problem(mesh, dofmap, system)
    assert calls == [mesh.num_cells]
    # the conformity check reads the tabulation of the assembled basis
    assert system.edge_tabulation is basis_cache.edge_tabulation()
    monkeypatch.undo()
    coeffs = cell_coefficients(mesh, dofmap, basis_cache, result["m"])
    assert np.array_equal(result["coeffs"], coeffs)
    report = check_conformity(mesh, dofmap, coeffs, cache=basis_cache)
    assert repr(result["conformity"]) == repr(report)


def test_plate_around_a_vertex_of_three_cells(hexagon_mesh):
    # the jump row of the hexagon's center sums three corners; the coarsest
    # mesh has no vertex of four cells, hence no 2 x 2 patch
    mesh = hexagon_mesh
    for level in range(3):
        if level:
            mesh = refine_uniform(mesh)
        dofmap = build_dof_map(mesh)
        system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x))
        result = solve_problem(mesh, dofmap, system)
        assert result["solver"]["residual"] <= 1e-10
        assert result["conformity"]["max_violation"] <= 1e-12
        assert result["ddiv_residual"] <= 1e-12
        if level == 0:
            # the jump row of the centre joins the three cells in the root
            info = result["solver"]
            assert (info["patches"], info["levels"], info["root_n"]) == (1, 0, 13)


def test_solve_problem_forms_no_matrix(monkeypatch):
    def unreachable(self):
        raise AssertionError("the saddle matrix was formed")

    monkeypatch.setattr(SaddleSystem, "full", unreachable)
    for problem in ("ex1", "ex2"):
        run = solve_example(get_example(problem), 2)
        assert run["result"]["solver"]["residual"] <= 1e-10


def test_pivot_breakdown_detected():
    # the pivot test in the root front: ex2 level 1 closes in a root at
    # level 3, on the rows between the pair of squares of level 2 and the
    # third square; a copy within 1e-7 of one of them, put first so that
    # the cover stays the same, gives a pivot of about 1e-15 times its
    # diagonal entry
    system = _plate_system("ex2", 1)
    hybrid = linsolve.HybridSolver(system)
    (root,) = hybrid.levels[-1].inner
    assert len(hybrid.levels) == 3 and root.shape == (1, 9)
    C = as_scipy(system.dofmap.C)
    row = C[root[0, 0]]
    near = row + sp.csr_matrix(([1e-7], ([0], [row.indices[0]])), shape=row.shape)
    plate = _with_continuity(system, sp.vstack([near, C], format="csr"))
    with pytest.raises(SingularSystemError, match="pivot / diagonal .* in block 0 of level 3"):
        linsolve.HybridSolver(plate)


@pytest.mark.parametrize("problem", ["ex1", "ex2"])
def test_non_finite_solution_raises(problem):
    # a NaN residual compares false against any bound, so the certificate
    # must be written to reject it rather than pass it
    K, rhs = _plate_system(problem, 1).full()
    rhs[len(rhs) // 2] = np.nan
    with pytest.raises(ResidualError, match="residual nan"):
        solve_saddle(K, rhs)


@pytest.mark.parametrize("problem, level", [("ex1", 2), ("ex2", 1)])
@pytest.mark.parametrize("which", ["0-d", "n x 1", "n x 2", "complex"])
def test_right_hand_side_must_be_a_real_vector(which, problem, level):
    # a right hand side of another shape, or a complex one, whose imaginary
    # part the solve would drop, is refused before anything is factored
    system = _plate_system(problem, level)
    b = system.rhs()
    bad = {"0-d": np.asarray(b[0]), "n x 1": b[:, None], "n x 2": np.c_[b, b],
           "complex": b + 1j}[which]
    with pytest.raises(ValueError, match=r"real right hand side of shape \(%d,\)" % len(b)):
        solve_saddle(system, bad)


def test_residual_failure_raises(monkeypatch):
    # the hybrid solve is accurate, so a genuinely unreachable residual
    # needs a rigged measurement; this checks the guard actually fires
    K, rhs = _plate_system("ex1", 1).full()
    monkeypatch.setattr(linsolve, "residual_norm", lambda r, x, b, anorm: 1.0)
    with pytest.raises(ResidualError):
        solve_saddle(K, rhs, rtol=1e-10)


def test_hybrid_and_colamd_solves_agree_with_neumann_rows(basis_cache):
    system = _plate_system("ex2", 3, cache=basis_cache)
    K, rhs = system.full()
    assert system.L.shape[0] > 0
    x, info = solve_saddle(K, rhs)
    # the oracle factors K whole: COLAMD with partial pivoting
    y = spla.splu(sp.csc_matrix(K), permc_spec="COLAMD").solve(rhs)
    assert info["path"] == "hybrid"
    assert 0 < info["root_n"] < K.shape[0]
    assert 0.0 < info["pivot_ratio"] <= 1.0
    nd, nu = system.ndofs, system.nu
    for part in (slice(0, nd), slice(nd, nd + nu), slice(nd + nu, None)):
        assert np.abs(x[part] - y[part]).max() <= 1e-9 * np.abs(y[part]).max()


def _graded_grid(nx, ny, seed=3):
    """nx x ny rectangle mesh with knot gaps drawn from [0.6, 1.4]: no two cells alike."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.4, nx))])
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.6, 1.4, ny))])
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    v = (ny + 1) * np.arange(nx)[:, None] + np.arange(ny)
    cells = np.stack([v, v + ny + 1, v + ny + 2, v + 1], axis=-1).reshape(-1, 4)
    return Mesh(np.column_stack([xx.ravel(), yy.ravel()]), cells)


def _covered(plate):
    """The solver of a plate, and the blocks of each level as its cover hands them to _merge.

    The blocks of level 1 are cells, mostly 2 x 2 patches, padded with -1.
    """
    picked, merge = [], linsolve._merge

    def recorded(units, diagonal, blocks, depth):
        picked.append(blocks)
        return merge(units, diagonal, blocks, depth)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linsolve, "_merge", recorded)
        hybrid = linsolve.HybridSolver(plate)
    return hybrid, picked


def _lifted(picked, ncells):
    """Per level, its blocks and the unit of that level that holds each cell.

    The units of a level are its blocks, then the units below that no block
    takes, in their order; -1 pads a block of fewer than four units.
    """
    of_cell = np.arange(ncells)
    for blocks in picked:
        block, unit = np.nonzero(blocks >= 0)
        taken = np.zeros(of_cell.max() + 1, dtype=bool)
        taken[blocks[block, unit]] = True
        up = np.empty(len(taken), dtype=int)
        up[blocks[block, unit]] = block
        up[~taken] = len(blocks) + np.arange(np.count_nonzero(~taken))
        of_cell = up[of_cell]
        yield blocks, of_cell


def _row_owners(rows, of_cell, nblocks):
    """The block that holds all cells of each row, -1 for none."""
    owners = [set(of_cell[list(cells)].tolist()) for cells in rows]
    return np.array([min(o) if len(o) == 1 and min(o) < nblocks else -1 for o in owners])


def _with_continuity(system, C):
    """The plate of ``system`` with the scipy csr rows C as its continuity rows."""
    dofmap = system.dofmap
    return types.SimpleNamespace(
        group=system.group, A_loc=system.A_loc, B_loc=system.B_loc, L=system.L,
        ndofs=system.ndofs, nu=system.nu,
        dofmap=types.SimpleNamespace(
            P=dofmap.P, Q=dofmap.Q, C=Csr(C.indptr, C.indices, C.data, C.shape)
        ),
    )


def _row_cells(hybrid):
    """The cells that each row of ``hybrid.Lam`` meets, as sets."""
    Lam = hybrid.Lam
    return [set(Lam.indices[Lam.indptr[i] : Lam.indptr[i + 1]] // 20) for i in range(Lam.shape[0])]


def _block_rows(level):
    """The inner and the outer rows of every block of a level, in block order."""
    inner, outer = [None] * len(level.group), [None] * len(level.group)
    for g, (rows_in, rows_out) in enumerate(zip(level.inner, level.outer)):
        for b, i, o in zip(np.flatnonzero(level.group == g), rows_in, rows_out):
            inner[b], outer[b] = i, o
    return inner, outer


def _eliminated_where_first_held(hybrid, cover):
    """Assert that each row is eliminated once, at the first level where a block holds its cells."""
    rows = _row_cells(hybrid)
    below = np.zeros(len(rows), dtype=bool)
    assert len(cover) == len(hybrid.levels) > 0
    for level, (blocks, of_cell) in zip(hybrid.levels, _lifted(cover, len(hybrid.group))):
        inside = np.flatnonzero((_row_owners(rows, of_cell, len(blocks)) >= 0) & ~below)
        eliminated = np.concatenate([inner.ravel() for inner in level.inner])
        assert np.array_equal(np.sort(eliminated), inside)
        below[inside] = True
    assert below.all()


def _closes_in_one_root(hybrid):
    """Assert that the levels eliminate every row once, the last level in one block, the root."""
    root = hybrid.levels[-1]
    assert len(root.group) == 1 and root.outer[0].shape == (1, 0)
    rows = np.concatenate([inner.ravel() for level in hybrid.levels for inner in level.inner])
    assert np.array_equal(np.sort(rows), np.arange(hybrid.Lam.shape[0]))


@pytest.mark.parametrize("which", ["graded-5x3", "ex2-0"])
def test_partial_and_empty_patch_covers_agree_with_colamd(which):
    # the 5 x 3 grid leaves cells beside its two 2 x 2 patches, and the
    # three cells of the level-0 L-shape share no interior vertex, so no
    # 2 x 2 patch at all; the cells that no patch takes join blocks of two
    # or three units that one row joins, or wait for the level above, and
    # the tree closes in one root all the same
    if which == "ex2-0":
        system = _plate_system("ex2", 0)
    else:
        mesh = _graded_grid(5, 3)
        system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))
    hybrid, (patches, *_) = _covered(system)
    four = patches[(patches >= 0).all(axis=1)]
    lone = np.setdiff1d(np.arange(len(hybrid.group)), four)
    assert (len(lone), len(four)) == ((7, 2) if which != "ex2-0" else (3, 0))
    _closes_in_one_root(hybrid)
    K, rhs = system.full()
    x, info = solve_saddle(K, rhs)
    y = spla.splu(sp.csc_matrix(K), permc_spec="COLAMD").solve(rhs)
    assert info["condensed_n"] + info["root_n"] == hybrid.Lam.shape[0]
    nd, nu = system.ndofs, system.nu
    for part in (slice(0, nd), slice(nd, nd + nu), slice(nd + nu, None)):
        if part.start < len(y):
            assert np.abs(x[part] - y[part]).max() <= 1e-9 * np.abs(y[part]).max()


def test_fully_condensed_plate_is_certified():
    # ex1 level 1 is one patch with no Neumann rows, and that patch is the
    # root, with all 17 multipliers; the pivot test and the residual
    # certificate run as on any plate
    system = _plate_system("ex1", 1)
    x, info = solve_saddle(system, system.rhs())
    assert (info["root_n"], info["patches"], info["levels"], info["condensed_n"]) == (17, 1, 0, 0)
    # plain floats, so that the repr of the dict holds only its numbers
    assert type(info["residual"]) is float and type(info["pivot_ratio"]) is float
    assert info["residual"] <= 1e-10
    assert 0.0 < info["pivot_ratio"] <= 1.0
    K, rhs = system.full()
    y = np.linalg.solve(K.toarray(), rhs)
    assert np.abs(x - y).max() <= 1e-10 * np.abs(y).max()


@pytest.mark.parametrize("which", ["ex1-3", "ex2-3", "graded", "graded-5x3"])
def test_patch_cover_numbers_every_cell_once(which, graded_mesh):
    # a patch is four different cells, no cell lies in two patches, and the
    # level-1 front of each patch holds exactly the rows that meet its cells
    if which == "graded-5x3":
        mesh = _graded_grid(5, 3)
        system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))
    else:
        system = _three_plates(which, graded_mesh)
    hybrid, (patches, *_) = _covered(system)
    level = hybrid.levels[0]
    taken = patches[patches >= 0]
    assert len(np.unique(taken)) == taken.size and taken.max() < len(hybrid.group)
    assert len(level.group) == len(patches) == hybrid.info()["patches"]
    rows = _row_cells(hybrid)
    for cells, inner, outer in zip(patches, *_block_rows(level)):
        front = set(inner) | set(outer)
        assert len(front) == len(inner) + len(outer)
        assert front == {i for i, meets in enumerate(rows) if meets & set(cells)}


@pytest.mark.parametrize("which", ["ex1-3", "ex2-3", "graded"])
def test_each_patch_condenses_its_seventeen_inner_rows(which, graded_mesh):
    # 16 moment rows on the four inner edges and the jump row of the center
    # vertex, plus the Neumann rows of its cells; the Neumann rows are the
    # last rows of Lam, as L Q
    system = _three_plates(which, graded_mesh)
    hybrid, (patches, *_) = _covered(system)
    level = hybrid.levels[0]
    nc, nl = system.dofmap.C.shape[0], system.L.shape[0]
    assert (which == "ex2-3") == (nl > 0)
    LQ = as_scipy(hybrid.L) @ as_scipy(hybrid.Q)
    assert np.array_equal(as_scipy(hybrid.Lam)[nc:].toarray(), LQ.toarray())
    rows = _row_cells(hybrid)
    neumann = 0
    for cells, inner in zip(patches, _block_rows(level)[0]):
        assert set(inner) == {i for i, meets in enumerate(rows) if meets <= set(cells)}
        # the graded mesh has a column of cells beside its patches, paired
        # at level 1 on the rows of the edge between them
        assert np.count_nonzero(inner < nc) == (17 if np.all(cells >= 0) else 4)
        neumann += np.count_nonzero(inner >= nc)
    # at ex2 level 3 each Neumann row lies in one cell, and every cell is in a patch
    assert neumann == nl


def test_patch_groups_follow_the_inside_rows():
    # the 16 patches of ex1 level 3 fall in 9 level-1 groups, the four inner
    # patches in one; scaling the inside rows of one inner patch must give
    # it its own group and its own elimination
    system = _plate_system("ex1", 3)
    level = linsolve.HybridSolver(system).levels[0]
    assert np.array_equal(np.bincount(level.group), [1, 2, 1, 2, 4, 2, 1, 2, 1])
    g = 4
    b = np.flatnonzero(level.group == g)[0]
    C = as_scipy(system.dofmap.C)
    for i in _block_rows(level)[0][b]:
        C.data[C.indptr[i] : C.indptr[i + 1]] *= 2.0
    scaled = linsolve.HybridSolver(_with_continuity(system, C)).levels[0]
    assert len(set(scaled.group)) == 10 and np.count_nonzero(scaled.group == scaled.group[b]) == 1
    # the same rows times 2 span the same space, so the Schur complement of
    # the front on its outer rows, F_OO - W^T W, is unchanged
    want, got = level.W[g], scaled.W[scaled.group[b]]
    assert np.allclose(got.T @ got, want.T @ want, rtol=0.0, atol=1e-12 * np.abs(want).max() ** 2)


def test_patch_interior_breakdown_detected():
    # the pivot test at level 1: a repeated inner row makes the front of the
    # one patch of ex1 level 1, its root, singular, and a copy of the jump
    # row C[0] with one entry moved by 5e-7 gives a pivot of 3e-14 times its
    # diagonal entry
    system = _plate_system("ex1", 1)
    C = as_scipy(system.dofmap.C)
    near = C[0].copy()
    near.data[0] += 5e-7
    for extra, match in [(C[0], "not positive definite.* of level 1"),
                         (near, "pivot / diagonal .* of level 1")]:
        plate = _with_continuity(system, sp.vstack([C, extra], format="csr"))
        with pytest.raises(SingularSystemError, match=match):
            linsolve.HybridSolver(plate)


def test_row_meeting_a_cell_in_two_slots_is_rejected():
    # every row of C and of L Q meets a cell in one slot, so a cell's update
    # is gathered from the slots of its rows; a row on the first two edge
    # moments of cell 0 is not such a row, and it is refused, not summed
    system = _plate_system("ex1", 1)
    C = as_scipy(system.dofmap.C)
    row = sp.csr_matrix(([1.0, 1.0], ([0, 0], [0, 1])), shape=(1, C.shape[1]))
    plate = _with_continuity(system, sp.vstack([C, row], format="csr"))
    with pytest.raises(ValueError, match="meets a cell in two slots"):
        linsolve.HybridSolver(plate)


def test_row_meeting_no_cell_is_singular():
    # a multiplier row without a nonzero is a zero row of S, which no block
    # would ever hold; it is refused before the cover is made
    system = _plate_system("ex1", 1)
    C = as_scipy(system.dofmap.C)
    plate = _with_continuity(system, sp.vstack([C, sp.csr_matrix((1, C.shape[1]))], format="csr"))
    with pytest.raises(SingularSystemError, match="multiplier row %d meets no cell" % C.shape[0]):
        linsolve.HybridSolver(plate)


@pytest.mark.parametrize(
    "which, counts",
    [
        ("ex2-4", [192, 48, 12, 3, 1, 1]),
        ("ex2-5", [768, 192, 48, 12, 3, 1, 1]),
        ("hexagon-1", [3, 1]),
        ("hexagon-2", [12, 3, 1]),
        ("hexagon-3", [48, 12, 3, 1]),
    ],
)
def test_one_cover_rule_takes_the_full_lattice(which, counts, hexagon_mesh):
    # reverse row order meets the centre of every parent cell of
    # refine_uniform before the vertices between parents, at every level;
    # above the lattice, the three squares of the L-shape close in a pair
    # and the root, and the three rhombi of the hexagon in one root
    name, level = which.split("-")
    mesh = get_example("ex2").mesh(int(level)) if name == "ex2" else hexagon_mesh
    for _ in range(int(level) if name == "hexagon" else 0):
        mesh = refine_uniform(mesh)
    # the clamped plate under f = 1: its multiplier rows are the continuity rows alone
    system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))
    assert system.L.shape[0] == 0
    _, cover = _covered(system)
    assert [len(blocks) for blocks in cover] == counts
    below = mesh.num_cells
    for blocks, n in zip(cover, counts):
        # two to four different units of the level below, each taken once;
        # the lattice takes four
        taken = blocks[blocks >= 0]
        assert np.all(np.count_nonzero(blocks >= 0, axis=1) >= 2)
        assert len(np.unique(taken)) == taken.size and taken.max() < below
        assert taken.size == 4 * n or n == 1
        below += n - taken.size
    assert below == 1


@pytest.mark.parametrize("level, schur_n, fill", [(4, 3900, 667280), (5, 1000, 500000)])
def test_blocks_leave_superlu_the_rows_between_the_top_blocks(level, schur_n, fill):
    # at ex2 level 4 the rows left between the top blocks once made a sparse
    # system of 3 900 rows whose factors held 667 280 nonzeros; the three
    # 2^l-cell squares of the L-shape close in a pair of squares and the
    # root, on the 10 2^l - 2 and 5 2^l - 1 rows between them, Neumann rows
    # included, and the root's dense factor holds fewer entries
    hybrid = linsolve.HybridSolver(_plate_system("ex2", level))
    info = hybrid.info()
    assert info["levels"] == level + 1
    pair, root = hybrid.levels[-2:]
    assert len(pair.group) == len(root.group) == 1
    assert pair.M[0].shape[0] + pair.W[0].shape[1] == 10 * 2**level - 2
    assert info["root_n"] == 5 * 2**level - 1 < schur_n and root.M[0].size < fill
    assert info["root_n"] + info["condensed_n"] == hybrid.Lam.shape[0]


def test_neumann_rows_inside_a_patch_are_eliminated_at_level_1():
    # ex2 level 1 has three patches, which eliminate every Neumann row; the
    # 18 rows between them meet in the front of a pair of patches, and the
    # root has the 9 rows between that pair and the third patch
    hybrid = linsolve.HybridSolver(_plate_system("ex2", 1))
    info = hybrid.info()
    assert (info["patches"], info["levels"], info["root_n"]) == (3, 2, 9)
    nb, nl = hybrid.Lam.shape[0], hybrid.L.shape[0]
    patch_rows = np.concatenate([inner.ravel() for inner in hybrid.levels[0].inner])
    assert np.isin(np.arange(nb - nl, nb), patch_rows).all()
    pair = hybrid.levels[1]
    assert pair.M[0].shape[0] + pair.W[0].shape[1] == 18


def _rotated_lshape():
    """make_lshape(3) rotated by 0.7 with its labels, f = 1 and random Neumann data."""
    mesh = _moved(make_lshape(3), 0.7, (0.0, 0.0))
    neumann = NeumannData(TensorField.random_poly(np.random.default_rng(0), 2))
    return build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x), neumann=neumann)


@pytest.mark.parametrize("which", ["ex2-1", "ex2-2", "ex2-3", "rotated"])
def test_no_row_inside_a_block_is_left_to_superlu(which):
    # at every level, patches and root included, a row whose cells all lie
    # in one block, and in no block below, is eliminated in that block's
    # front, Neumann rows alike
    if which == "rotated":
        system = _rotated_lshape()
    else:
        system = _plate_system("ex2", int(which.split("-")[1]))
    assert system.L.shape[0] > 0
    _eliminated_where_first_held(*_covered(system))


@pytest.mark.parametrize("which", ["ex1-3", "graded-8x8"])
def test_lattice_plate_leaves_superlu_nothing(which):
    # the top block of the lattice covers the whole clamped plate and is its
    # root, so every block is four units and no pair or root is added; the
    # graded grid has no two cells alike
    if which == "ex1-3":
        system = _plate_system("ex1", 3)
    else:
        mesh = _graded_grid(8, 8)
        system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))
    x, info = solve_saddle(system, system.rhs())
    assert (info["root_n"], info["patches"], info["levels"]) == (77, 16, 2)
    _, cover = _covered(system)
    assert [len(blocks) for blocks in cover] == [16, 4, 1]
    assert all(np.all(blocks >= 0) for blocks in cover)
    assert info["residual"] <= 1e-10 and 0.0 < info["pivot_ratio"] <= 1.0


def _ex2_system(mesh):
    """The ex2 plate on a mesh: its load, material and boundary data."""
    exact = get_example("ex2")
    return build_system(mesh, build_dof_map(mesh), exact.f, material=exact.material,
                        dirichlet=exact.dirichlet, neumann=exact.neumann)


def _renumbered(mesh, seed):
    """The mesh with cells and vertices in seeded random order, labels kept, and the cell order."""
    rng = np.random.default_rng(seed)
    cells, vertices = rng.permutation(mesh.num_cells), rng.permutation(mesh.num_vertices)
    new = np.empty_like(vertices)
    new[vertices] = np.arange(len(vertices))
    b = mesh.boundary_edges
    pairs = zip(new[mesh.edges[b]].tolist(), mesh.edge_label[b])
    labels = {frozenset(pair): lab for pair, lab in pairs}
    return Mesh(mesh.vertices[vertices], new[mesh.cells[cells]], labels), cells


@pytest.mark.parametrize(
    "which",
    ["ex2-3-renumbered", "hexagon-0", "hexagon-1", "hexagon-2", "ex2-0", "graded-5x3", "one-cell"],
)
def test_every_tree_closes_in_one_root(which, hexagon_mesh):
    # a mesh numbered at random, where the four-unit passes leave many units
    # free; a vertex of three cells; an L-shape with no vertex of four
    # cells; a grid with cells beside its patches; and one cell whose two
    # Neumann edges give it 9 rows of its own and no continuity row
    load = lambda x, y: np.ones_like(x)
    if which == "ex2-3-renumbered":
        mesh, cells = _renumbered(get_example("ex2").mesh(3), 1)
        system = _ex2_system(mesh)
    elif which == "ex2-0":
        mesh = get_example("ex2").mesh(0)
        system = _ex2_system(mesh)
    elif which == "one-cell":
        corners = np.array([[0.0, 0.0], [2.0, 0.5], [2.5, 1.5], [0.5, 1.0]])
        mesh = Mesh(corners, np.array([[0, 1, 2, 3]]),
                    {frozenset((0, 1)): "N", frozenset((1, 2)): "N"})
        neumann = NeumannData(TensorField.random_poly(np.random.default_rng(0), 2))
        system = build_system(mesh, build_dof_map(mesh), load, neumann=neumann)
        assert system.L.shape[0] == 9 and system.dofmap.C.shape[0] == 0
    else:
        if which == "graded-5x3":
            mesh = _graded_grid(5, 3)
        else:
            mesh = hexagon_mesh
            for _ in range(int(which.split("-")[1])):
                mesh = refine_uniform(mesh)
        system = build_system(mesh, build_dof_map(mesh), load)
    hybrid = linsolve.HybridSolver(system)
    _closes_in_one_root(hybrid)
    result = solve_problem(mesh, system.dofmap, system)
    assert result["solver"]["residual"] <= 1e-10
    if which != "ex2-3-renumbered":
        return
    # the largest front of the random numbering stays near those of the
    # lattice, and the answer is the lattice's, cell by cell
    fronts = [M.shape[0] + W.shape[1] for level in hybrid.levels for M, W in zip(level.M, level.W)]
    assert max(fronts) <= 400
    base = get_example("ex2").mesh(3)
    want = solve_problem(base, build_dof_map(base), _ex2_system(base))
    for key, width in (("coeffs", 20), ("u", 3)):
        got, ref = result[key].reshape(-1, width), want[key].reshape(-1, width)[cells]
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), key


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_any_numbering_gives_the_same_answer(seed):
    # the blocks that the cover picks follow the numbering of the mesh, but
    # on any numbering of ex2 level 2 each row is eliminated once, in the
    # first block that holds all its cells, the tree closes in one root, and
    # the answer is that of the mesh as refine_uniform numbers it
    base = get_example("ex2").mesh(2)
    mesh, cells = _renumbered(base, seed)
    system = _ex2_system(mesh)
    hybrid, cover = _covered(system)
    _closes_in_one_root(hybrid)
    _eliminated_where_first_held(hybrid, cover)
    result = solve_problem(mesh, system.dofmap, system)
    want = solve_problem(base, build_dof_map(base), _ex2_system(base))
    for key, width in (("coeffs", 20), ("u", 3)):
        got, ref = result[key].reshape(-1, width), want[key].reshape(-1, width)[cells]
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), key


def _star():
    """Six rhombi around the origin: corners 0, e_k, e_k + e_k+1, e_k+1, e_k at 60 degree steps.

    The origin is an interior vertex of six cells, the only vertex of more
    than four cells in the tests.
    """
    angle = np.arange(6) * np.pi / 3.0
    e = np.column_stack([np.cos(angle), np.sin(angle)])
    k = np.arange(6)
    cells = np.column_stack([np.zeros(6, dtype=int), 1 + k, 7 + k, 1 + (k + 1) % 6])
    return Mesh(np.vstack([np.zeros((1, 2)), e, e + np.roll(e, -1, axis=0)]), cells)


@pytest.mark.parametrize("which", ["ex1-3", "ex2-3", "ex2-3-renumbered", "star"])
def test_sparse_products_match_the_scipy_oracle(which):
    # Q P = I and C P = 0 on random vectors, and every product of the dof
    # map, the plate and the solver is that of scipy, bit for bit: each
    # row, or each column for the transpose, is summed in stored order
    mesh = {
        "ex1-3": lambda: get_example("ex1").mesh(3),
        "ex2-3": lambda: get_example("ex2").mesh(3),
        "ex2-3-renumbered": lambda: _renumbered(get_example("ex2").mesh(3), 1)[0],
        "star": _star,
    }[which]()
    system = _ex2_system(mesh)
    dofmap = system.dofmap
    P, Q, C = dofmap.P, dofmap.Q, dofmap.C
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dofmap.ndofs)
    assert np.array_equal(Q @ (P @ x), x)
    assert np.abs(C @ (P @ x)).max() <= 1e-14 * np.abs(x).max()
    for M in (P, Q, C, system.L, system.B, linsolve.HybridSolver(system).Lam):
        S = as_scipy(M)
        x, y = rng.standard_normal(M.shape[1]), rng.standard_normal(M.shape[0])
        assert np.array_equal(M @ x, S @ x)
        assert np.array_equal(M.rmatvec(y), S.T @ y)


@pytest.mark.parametrize(
    "refinements, counts, root_n", [(0, [3, 1], 13), (1, [6, 3, 1], 28), (2, [24, 6, 3, 1], 58)]
)
def test_vertex_of_six_cells_closes_in_one_root(refinements, counts, root_n):
    # the jump row of the origin joins six units, more than a block takes:
    # the cover takes the lattice inside each refined rhombus, then three
    # pairs of rhombi that the edge rows between them join, and the row of
    # the origin then joins the three pairs in the root
    mesh = _star()
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x))
    hybrid, cover = _covered(system)
    assert [len(blocks) for blocks in cover] == counts
    _closes_in_one_root(hybrid)
    K, rhs = system.full()
    x, info = solve_saddle(K, rhs)
    assert info["root_n"] == root_n and info["residual"] <= 1e-10
    y = spla.splu(sp.csc_matrix(K), permc_spec="COLAMD").solve(rhs)
    nd, nu = system.ndofs, system.nu
    for part in (slice(0, nd), slice(nd, nd + nu)):
        assert np.abs(x[part] - y[part]).max() <= 1e-9 * np.abs(y[part]).max()


def test_each_part_of_a_mesh_in_parts_closes():
    # a ring of eight cells around a hole and, apart from it, one cell with
    # two Neumann edges (Euler characteristic 0 + 1): no row joins the two
    # parts, so the ring closes in its own root, and the lone cell's 9 rows
    # then form a front of that cell alone
    corners = [(x, y) for y in range(4) for x in range(4)] + [(5, 0), (6, 0), (6, 1), (5, 1)]
    cells = [[4 * y + x, 4 * y + x + 1, 4 * y + x + 5, 4 * y + x + 4]
             for y in range(3) for x in range(3) if (x, y) != (1, 1)]
    mesh = Mesh(np.array(corners, dtype=float), np.array(cells + [[16, 17, 18, 19]]),
                {frozenset((16, 17)): "N", frozenset((17, 18)): "N"})
    neumann = NeumannData(TensorField.random_poly(np.random.default_rng(0), 2))
    system = build_system(mesh, build_dof_map(mesh), lambda x, y: np.ones_like(x), neumann=neumann)
    hybrid, cover = _covered(system)
    assert [len(blocks) for blocks in cover] == [4, 2, 1, 1]
    assert cover[-1].tolist() == [[1, -1, -1, -1]]
    _closes_in_one_root(hybrid)
    assert hybrid.info()["root_n"] == system.L.shape[0] == 9
    result = solve_problem(mesh, system.dofmap, system)
    assert result["solver"]["residual"] <= 1e-10


def test_block_interior_breakdown_detected():
    # the pivot test in a front above the patches: a copy within 1e-7 of an
    # edge row between two patches of the one level-2 block of ex1 level 2,
    # its root, gives a pivot of about 1e-15 times its diagonal entry
    system = _plate_system("ex1", 2)
    _, (patches, *_) = _covered(system)
    patch_of = np.empty(len(system.group), dtype=int)
    patch_of[patches] = np.arange(len(patches))[:, None]
    C = as_scipy(system.dofmap.C)
    between = [
        i for i in range(C.shape[0])
        if len(set(patch_of[C.indices[C.indptr[i] : C.indptr[i + 1]] // 20])) == 2
        and C.indptr[i + 1] - C.indptr[i] == 2
    ]
    row = C[between[0]]
    near = row + sp.csr_matrix(([1e-7], ([0], [row.indices[0]])), shape=row.shape)
    plate = _with_continuity(system, sp.vstack([C, near], format="csr"))
    with pytest.raises(SingularSystemError, match="pivot / diagonal .* of level 2"):
        linsolve.HybridSolver(plate)


def test_blocks_group_by_their_units_and_the_places_of_their_rows():
    # four blocks of four units of one group: in the first, units 0 and 1
    # share the block's inside row, in the second units 0 and 2 do, so the
    # fronts differ and must not share an elimination.  The third and the
    # fourth put their rows at the same places, but two of them lie inside
    # the third and one inside the fourth, so their fronts differ too.  A row
    # is inside when its block holds every unit that carries it: thirteen
    # units that no block takes carry every other row.  Each block's update
    # is the Schur complement of its own front
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    U = [a @ a.T + 3.0 * np.eye(3)]
    nb, inside = 44, [2, 13, 22, 23, 33]
    outer = np.array([[0, 1, 2], [2, 3, 4], [5, 6, 7], [8, 9, 10],
                      [11, 12, 13], [14, 15, 16], [13, 17, 18], [19, 20, 21],
                      [22, 23, 24], [24, 25, 26], [27, 28, 29], [30, 31, 32],
                      [33, 34, 35], [35, 36, 37], [38, 39, 40], [41, 42, 43]])
    outer = np.vstack([outer, np.setdiff1d(np.arange(nb), inside).reshape(13, 3)])
    diagonal = np.bincount(outer.ravel(), np.tile(np.diag(U[0]), len(outer)), nb)
    blocks = np.arange(16).reshape(4, 4)
    level, rows, _, (up, group, U_up) = linsolve._merge(
        (outer, np.zeros(len(outer), dtype=int), U), diagonal, blocks, 2
    )
    assert len(set(group[:4])) == len(level.group) == 4
    assert np.array_equal(rows, inside)
    for b, inner in enumerate(_block_rows(level)[0]):
        nO = np.count_nonzero(up[b] < nb)
        order = np.concatenate([inner, up[b, :nO]])
        at = {row: i for i, row in enumerate(order)}
        F = np.zeros((len(order), len(order)))
        for unit in blocks[b]:
            i = [at[row] for row in outer[unit]]
            F[np.ix_(i, i)] += U[0]
        nI = len(inner)
        want = F[nI:, nI:] - F[nI:, :nI] @ np.linalg.solve(F[:nI, :nI], F[:nI, nI:])
        got = U_up[group[b]]
        assert got.shape == (nO, nO)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("where", ["patch", "block"])
@pytest.mark.parametrize("name", ["cholesky", "inv"])
def test_dense_failure_is_a_singular_system(where, name, monkeypatch):
    # a failure of either dense step on the multiplier system, the Cholesky
    # factorization or the triangular inverse of its factor, in a patch (17
    # rows) or in a front above, leaves the solver as a SingularSystemError
    system = _plate_system("ex1", 2)

    def fails(n):
        return (n == 17) == (where == "patch")

    if name == "cholesky":
        cholesky = np.linalg.cholesky

        def failing(a):
            n = a.shape[-1]
            if fails(n):
                raise np.linalg.LinAlgError("cholesky of a %d x %d matrix" % (n, n))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        match = "cholesky of a"
    else:
        lower_inverse = linsolve._lower_inverse

        def failing(C):
            n = C.shape[-1]
            if fails(n):
                raise np.linalg.LinAlgError("inverse of a %d x %d factor" % (n, n))
            return lower_inverse(C)

        monkeypatch.setattr(linsolve, "_lower_inverse", failing)
        match = "inverse of a"
    with pytest.raises(SingularSystemError, match=match):
        linsolve.HybridSolver(system)


def test_multiplier_system_pattern_is_rotation_invariant():
    # the cover reads only the pattern of the multiplier rows, so its blocks
    # and the sizes of their fronts follow the mesh, not the rounding of
    # rotated cell data
    base = make_lshape(3)

    def solver_info(angle):
        c, s = np.cos(angle), np.sin(angle)
        mesh = Mesh(base.vertices @ np.array([[c, s], [-s, c]]), base.cells)
        dofmap = build_dof_map(mesh)
        system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x))
        return solve_problem(mesh, dofmap, system)["solver"]

    want, got = solver_info(0.0), solver_info(0.7)
    for key in ("root_n", "condensed_n", "patches", "levels"):
        assert got[key] == want[key], key
    assert got["pivot_ratio"] == pytest.approx(want["pivot_ratio"], rel=1e-6)


def _moved(mesh, angle, shift):
    """The mesh rotated by ``angle`` about the origin, then shifted, labels kept."""
    c, s = np.cos(angle), np.sin(angle)
    b = mesh.boundary_edges
    labels = {frozenset(pair): lab for pair, lab in zip(mesh.edges[b].tolist(), mesh.edge_label[b])}
    vertices = mesh.vertices @ np.array([[c, s], [-s, c]]) + np.asarray(shift, dtype=float)
    return Mesh(vertices, mesh.cells, labels)


@pytest.mark.parametrize("which", ["ex1-3", "lshape-3"])
def test_solution_solves_the_rotated_and_translated_plate(which):
    # the dofs live in global edge frames and the deflection in pulled-back
    # coefficients, so a rigid motion leaves the clamped plate under f = 1
    # and its solution unchanged; only the rounding of the moved vertices,
    # about eps |shift| / h relative, may add to the solve's own residual
    mesh = get_example("ex1").mesh(3) if which == "ex1-3" else make_lshape(3)
    h = mesh.h_cell.max()
    load = lambda x, y: np.ones_like(x)
    system = build_system(mesh, build_dof_map(mesh), load)
    x, info = solve_saddle(system, system.rhs())
    eps = np.finfo(float).eps
    for angle, shift in [(0.7, (0.0, 0.0)), (0.7, (3.0, -2.0)), (2.0, (30.0, 17.0)),
                         (0.3, (1e3, 1e3))]:
        moved = _moved(mesh, angle, shift)
        system = build_system(moved, build_dof_map(moved), load)
        hybrid = linsolve.HybridSolver(system)
        b = system.rhs()
        res = linsolve.residual_norm(b - hybrid.apply(x), x, b, hybrid.norm_inf())
        assert res <= info["residual"] + 100.0 * eps * (1.0 + np.hypot(*shift) / h), (angle, shift)


def test_all_neumann_plate_rejected(monkeypatch):
    # moment and shear data on the whole boundary leave the rigid motions of
    # the deflection free; that is read off the sparsity of P and L, so no
    # pivot of the singular multiplier system has to show it
    exact = get_example("ex1")
    base = exact.mesh(2)
    mesh = Mesh(base.vertices, base.cells, default_label="N")
    dofmap = build_dof_map(mesh)
    system = build_system(mesh, dofmap, exact.f, neumann=NeumannData(exact.field))

    def unreachable(S, where):
        raise AssertionError("the multiplier system was factored")

    monkeypatch.setattr(linsolve, "_factor", unreachable)
    with pytest.raises(SingularSystemError, match="rigid deflections"):
        solve_problem(mesh, dofmap, system)

    # without the rows of one edge, that edge is clamped with zero data and
    # the same plate is regular
    monkeypatch.undo()
    edge = mesh.neumann_edges()[0]
    keep = np.nonzero(~np.isin(system.L.indices, 4 * edge + np.arange(4)))[0]
    L = as_scipy(system.L)[keep]
    system.L, system.d = Csr(L.indptr, L.indices, L.data, L.shape), system.d[keep]
    result = solve_problem(mesh, dofmap, system)
    assert result["solver"]["path"] == "hybrid"


def test_spd_pivots_are_matched_to_their_diagonal_entries():
    # an arrow matrix with its hub last: every other pivot is its own
    # diagonal entry and the hub's is its Schur complement, each read over
    # its diagonal entry of S, and M = C^-1 D gives S^-1 = M^T M
    d = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 7.0])
    S = np.diag(d)
    S[5, :] = S[:, 5] = 1.0
    S[5, 5] = 10.0
    M, ratio = linsolve._factor(S[None], "in a test")
    want = np.ones(6)
    want[5] = 1.0 - np.sum(1.0 / d[:5]) / 10.0
    assert np.allclose(ratio[0], want, rtol=1e-14, atol=0.0)
    assert np.allclose(M[0].T @ M[0], np.linalg.inv(S), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize(
    "m", [1, linsolve._HALVES - 1, linsolve._HALVES, linsolve._HALVES + 1, 317]
)
def test_lower_inverse_by_halves_is_the_inverse(m):
    # up to _HALVES a factor is inverted whole, above it by halves; 317 is
    # the largest inner size of the ex2 levels 1-5, at its root
    rng = np.random.default_rng(m)
    X = rng.standard_normal((3, m, m))
    C = np.linalg.cholesky(X @ X.transpose(0, 2, 1) + m * np.eye(m))
    want = np.linalg.inv(C)
    got = linsolve._lower_inverse(C)
    assert np.all(np.triu(got, 1) == 0.0)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [linsolve._HALVES + 1, 317])
def test_indefinite_front_names_its_level(m):
    # unit diagonal, eigenvalues 2 and 2 - m: the Cholesky factorization
    # fails, at any order, as a singular system of the level of the front
    S = 2.0 * np.eye(m) - np.ones((m, m))
    with pytest.raises(SingularSystemError, match="not positive definite in a block of level 4"):
        linsolve._factor(S[None], "in a block of level 4")


def test_indefinite_multiplier_system_rejected():
    with pytest.raises(SingularSystemError, match="not positive definite in a test"):
        linsolve._factor(np.array([[[1.0, 2.0], [2.0, 1.0]]]), "in a test")


# -- discrete stability ---------------------------------------------------------------


def test_deflection_equation_uniformly_solvable(basis_cache):
    # eigenvalues of the Schur complement in the augmented metric certify a
    # mesh-independent inf-sup bound for the divergence-divergence coupling
    for lvl in range(4):
        mesh = make_parallelogram_domain(EX1_CORNERS, lvl)
        dofmap = build_dof_map(mesh)
        system = build_system(mesh, dofmap, lambda x, y: np.ones_like(x), cache=basis_cache)
        K, _ = system.full()
        nd = dofmap.ndofs
        A, B = K[:nd, :nd].toarray(), as_scipy(system.B).toarray()
        dets = np.array([element_map(mesh, k).det for k in range(mesh.num_cells)])
        mu = np.concatenate([d * np.array([4.0, 4.0 / 3.0, 4.0 / 3.0]) for d in dets])
        At = A + B.T @ (B / mu[:, None])
        S = (B @ np.linalg.solve(At, B.T)) / np.sqrt(np.outer(mu, mu))
        lam = sla.eigvalsh(0.5 * (S + S.T))
        beta = np.sqrt(max(lam.min(), 0.0))
        assert beta > 0.9
        assert lam.max() < 1.0 + 1e-10
