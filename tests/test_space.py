"""Global degrees of freedom: dimension counts, jump elimination, conformity."""

import numpy as np
import pytest

from cellspec import as_scipy, cell_geometry, physical_dofs, tensors
from ddivfem.mesh import EX1_CORNERS, Mesh, make_lshape, make_parallelogram_domain
from ddivfem import piola, space
from ddivfem.piola import BasisCache, batch_geometry, cell_groups
from ddivfem.space import build_dof_map, cell_coefficients, check_conformity


def formula(mesh):
    return 4 * mesh.num_edges + 4 * mesh.num_cells - len(mesh.interior_vertices)


def test_dimension_formula_on_both_domains():
    meshes = [make_parallelogram_domain(EX1_CORNERS, lvl) for lvl in range(4)]
    meshes += [make_lshape(lvl) for lvl in range(4)]
    for mesh in meshes:
        dofmap = build_dof_map(mesh)
        assert dofmap.ndofs == formula(mesh)


def test_frozen_dimension_values():
    assert build_dof_map(make_parallelogram_domain(EX1_CORNERS, 1)).ndofs == 63
    assert build_dof_map(make_lshape(0)).ndofs == 52
    assert build_dof_map(make_lshape(1)).ndofs == 171


def test_one_jump_eliminated_per_interior_vertex():
    mesh = make_lshape(2)
    dofmap = build_dof_map(mesh)
    dropped = np.argwhere(dofmap.jump_id < 0)
    assert sorted(mesh.cells[k, c] for k, c in dropped) == list(mesh.interior_vertices)
    for k, c in dropped:
        patch = np.argwhere(mesh.cells == mesh.cells[k, c])
        # the first cell of the patch drops its jump, and its row of P is
        # minus the sum of the kept jumps of the other patch members
        assert [k, c] == patch[0].tolist()
        partners = [dofmap.jump_id[kk, cc] for kk, cc in patch[1:]]
        assert len(partners) == len(patch) - 1 and min(partners) >= 0
        row = as_scipy(dofmap.P)[20 * k + 16 + c]
        assert sorted(row.indices) == sorted(partners)
        assert np.all(row.data == -1.0)


@pytest.mark.parametrize("which", ["ex1-2", "lshape-2", "graded", "rotated-lshape-3", "hexagon"])
def test_continuity_rows_vanish_on_the_space(which, graded_mesh, hexagon_mesh):
    # C P = 0 with entries +-1: four rows per interior edge, two copies of
    # each edge dof, and one per interior vertex, its jumps summed
    if which == "rotated-lshape-3":
        c, s = np.cos(0.7), np.sin(0.7)
        base = make_lshape(3)
        mesh = Mesh(base.vertices @ np.array([[c, s], [-s, c]]), base.cells)
    else:
        mesh = {
            "ex1-2": make_parallelogram_domain(EX1_CORNERS, 2),
            "lshape-2": make_lshape(2),
            "graded": graded_mesh,
            "hexagon": hexagon_mesh,
        }[which]
    dofmap = build_dof_map(mesh)
    C = dofmap.C
    assert (as_scipy(C) @ as_scipy(dofmap.P)).count_nonzero() == 0
    interior_edges = mesh.num_edges - len(mesh.boundary_edges)
    assert C.shape[0] == 20 * mesh.num_cells - dofmap.ndofs
    assert C.shape[0] == 4 * interior_edges + len(mesh.interior_vertices)
    assert np.all(np.abs(C.data) == 1.0)


@pytest.mark.parametrize(
    "which, seed, draws", [("ex1-2", 23, 3), ("lshape-1", 17, 1)], ids=["ex1-2", "lshape-1"]
)
def test_any_coefficient_vector_is_conforming(which, seed, draws):
    # the numbering shares edge dofs and eliminates one jump per interior
    # vertex, so every global vector describes a conforming tensor field
    mesh = make_parallelogram_domain(EX1_CORNERS, 2) if which == "ex1-2" else make_lshape(1)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        m = rng.standard_normal(dofmap.ndofs)
        coeffs = cell_coefficients(mesh, dofmap, cache, m)
        assert coeffs.shape == (mesh.num_cells, 20)
        report = check_conformity(mesh, dofmap, coeffs, cache=cache)
        assert report["max_violation"] < 1e-12 * max(1.0, np.abs(m).max())


def test_conformity_check_catches_raw_coefficients():
    # bypassing the dof map with independent per-cell coefficients must
    # produce interface violations
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((mesh.num_cells, 20))
    report = check_conformity(mesh, dofmap, raw, cache=cache)
    assert report["max_violation"] > 0.1


def quadrature_conformity(mesh, basis, coeffs, nq):
    """The conformity maxima from physical_dofs of each cell's tensor.

    Reconstructs every cell's reference tensor from its coefficients,
    evaluates its 20 functionals by edge quadrature, and scans the edges and
    interior vertices in index order, keeping the first location of each
    maximum.
    """
    basis = tensors(basis)
    phys = []
    for k in range(mesh.num_cells):
        M = basis[0] * float(coeffs[k][0])
        for w, phi in zip(coeffs[k][1:], basis[1:]):
            M = M + phi * float(w)
        phys.append(physical_dofs(*cell_geometry(mesh, k), M, nq=nq))
    out = {"max_moment_mismatch": 0.0, "max_shear_mismatch": 0.0, "max_jump_sum": 0.0,
           "worst_edge_m": -1, "worst_edge_q": -1, "worst_vertex": -1}
    for e in range(mesh.num_edges):
        k1, k2 = mesh.edge_cells[e]
        if k2 < 0:
            continue
        j1 = list(mesh.cell_edges[k1]).index(e)
        j2 = list(mesh.cell_edges[k2]).index(e)
        for slots, key, where in (((0, 4), "max_moment_mismatch", "worst_edge_m"),
                                  ((8, 12), "max_shear_mismatch", "worst_edge_q")):
            for slot in slots:
                d = abs(phys[k1][slot + j1] - phys[k2][slot + j2])
                if d > out[key]:
                    out[key], out[where] = d, e
    for v in mesh.interior_vertices:
        s = abs(sum(phys[k][16 + c] for k, c in np.argwhere(mesh.cells == v)))
        if s > out["max_jump_sum"]:
            out["max_jump_sum"], out["worst_vertex"] = s, v
    return out


@pytest.mark.parametrize("nq", [4, 8])
def test_conformity_of_raw_coefficients_matches_quadrature(graded_mesh, nq):
    # the check's exact edge functionals against the oracle's nq-point rule
    cache = BasisCache()
    rng = np.random.default_rng(31)
    for mesh in (graded_mesh, make_lshape(1)):
        dofmap = build_dof_map(mesh)
        raw = rng.standard_normal((mesh.num_cells, 20))
        report = check_conformity(mesh, dofmap, raw, cache=cache)
        want = quadrature_conformity(mesh, cache.basis, raw, nq)
        for key in ("max_moment_mismatch", "max_shear_mismatch", "max_jump_sum"):
            assert report[key] == pytest.approx(want[key], rel=1e-12)
        for key in ("worst_edge_m", "worst_edge_q", "worst_vertex"):
            assert report[key] == want[key]
        assert report["max_violation"] == max(
            report["max_moment_mismatch"], report["max_shear_mismatch"], report["max_jump_sum"]
        )


def test_conformity_reports_no_location_without_violation():
    # a single cell has no interior edge or vertex to compare
    mesh = make_parallelogram_domain(EX1_CORNERS, 0)
    dofmap = build_dof_map(mesh)
    raw = np.random.default_rng(3).standard_normal((1, 20))
    report = check_conformity(mesh, dofmap, raw)
    assert report["max_violation"] == 0.0
    assert (report["worst_edge_m"], report["worst_edge_q"], report["worst_vertex"]) == (-1, -1, -1)


# -- one dof matrix per group of equal cells -------------------------------------


def test_cell_groups_number_every_cell():
    mesh = make_lshape(3)
    keys = batch_geometry(mesh).keys()
    first, group = cell_groups(keys)
    assert group.shape == (mesh.num_cells,)
    assert np.array_equal(first, np.sort(first))
    assert np.array_equal(keys[first[group]], keys)
    assert np.array_equal(group[first], np.arange(len(first)))
    assert len(first) < mesh.num_cells


def report_inputs(mesh, kind):
    """A dof map and random raw coefficients, or the conforming coefficients
    of a random global vector."""
    dofmap = build_dof_map(mesh)
    rng = np.random.default_rng(41)
    if kind == "raw":
        return dofmap, rng.standard_normal((mesh.num_cells, 20))
    return dofmap, cell_coefficients(mesh, dofmap, BasisCache(), rng.standard_normal(dofmap.ndofs))


@pytest.mark.parametrize("nq", [4, 8])
@pytest.mark.parametrize("kind", ["raw", "global"])
@pytest.mark.parametrize("which", ["lshape", "graded"])
def test_grouped_conformity_is_the_all_cell_report(graded_mesh, monkeypatch, which, kind, nq):
    # with every cell its own group the check builds the dof matrices of all
    # cells in one batch, dof_matrices(batch_geometry(mesh), tab); grouping
    # must give the same report to the last bit, and the maxima of the
    # oracle's nq-point edge rule to rounding.  The conforming field of a
    # global vector reports rounding noise, whose maxima and locations move
    # with any change in the order of the sums
    mesh = make_lshape(3) if which == "lshape" else graded_mesh
    dofmap, coeffs = report_inputs(mesh, kind)
    cache = BasisCache()
    got = check_conformity(mesh, dofmap, coeffs, cache=cache)

    calls = []

    def one_cell_groups(keys):
        calls.append(len(keys))
        return np.arange(len(keys)), np.arange(len(keys))

    monkeypatch.setattr(space, "cell_groups", one_cell_groups)
    want = check_conformity(mesh, dofmap, coeffs, cache=cache)
    assert calls == [mesh.num_cells]
    assert repr(got) == repr(want)

    oracle = quadrature_conformity(mesh, cache.basis, coeffs, nq)
    scale = max(1.0, np.abs(coeffs).max())
    for key in ("max_moment_mismatch", "max_shear_mismatch", "max_jump_sum"):
        assert got[key] == pytest.approx(oracle[key], rel=1e-12, abs=1e-12 * scale)


def test_perturbed_cell_reported_inside_its_group():
    # a conforming field whose coefficients change in one cell only; the
    # cell is neither its group's first nor alone in it, so a check reading
    # the representative's coefficients would pass the field
    mesh = make_lshape(3)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    raw = cell_coefficients(mesh, dofmap, cache, np.random.default_rng(5).standard_normal(dofmap.ndofs))
    first, group = cell_groups(batch_geometry(mesh).keys())
    largest = np.argmax(np.bincount(group))
    members = np.flatnonzero(group == largest)
    k = members[len(members) // 2]
    assert len(members) > 10 and k != first[largest]

    before = check_conformity(mesh, dofmap, raw, cache=cache)
    assert before["max_violation"] < 1e-12
    raw[k] += np.random.default_rng(6).standard_normal(20)
    report = check_conformity(mesh, dofmap, raw, cache=cache)
    assert report["max_violation"] > 1e-3
    worst = [
        (report["max_moment_mismatch"], report["worst_edge_m"], mesh.cell_edges[k]),
        (report["max_shear_mismatch"], report["worst_edge_q"], mesh.cell_edges[k]),
        (report["max_jump_sum"], report["worst_vertex"], mesh.cells[k]),
    ]
    for value, where, own in worst:
        if value > 1e-8:
            assert where in own


@pytest.mark.parametrize("kind", ["m0", "m1", "q0", "q1", "jump"])
def test_conformity_names_the_moved_dof(kind, basis_cache):
    # one physical dof of one cell moves by delta: T_k Tinv_k e_slot = e_slot,
    # so only the row of that dof changes, by delta, and the report names
    # its edge or vertex
    mesh = make_lshape(3)
    dofmap = build_dof_map(mesh)
    raw = cell_coefficients(
        mesh, dofmap, basis_cache, np.random.default_rng(11).standard_normal(dofmap.ndofs)
    )
    # a cell with four interior corners, so its edges are interior too
    k = np.flatnonzero(np.isin(mesh.cells, mesh.interior_vertices).all(axis=1))[3]
    j = 2
    first = {"m0": space.SLOT_M0, "m1": space.SLOT_M1, "q0": space.SLOT_Q0,
             "q1": space.SLOT_Q1, "jump": space.SLOT_JUMP}[kind]
    _, group, Tinv = basis_cache.groups(mesh)
    delta = -0.75
    raw[k] += delta * Tinv[group[k]][:, first + j]
    report = check_conformity(mesh, dofmap, raw, cache=basis_cache)

    if kind == "jump":
        key, where, place = "max_jump_sum", "worst_vertex", mesh.cells[k, j]
    elif kind in ("m0", "m1"):
        key, where, place = "max_moment_mismatch", "worst_edge_m", mesh.cell_edges[k, j]
    else:
        key, where, place = "max_shear_mismatch", "worst_edge_q", mesh.cell_edges[k, j]
    assert report[where] == place
    assert report[key] == pytest.approx(abs(delta), rel=1e-12)
    for other in {"max_moment_mismatch", "max_shear_mismatch", "max_jump_sum"} - {key}:
        assert report[other] <= 1e-12


def test_conformity_groups_the_cells_once(monkeypatch):
    # once, for the dof matrices of the field; the cache's groups, which
    # would group the cells again, are not asked for
    mesh = make_lshape(2)
    dofmap, coeffs = report_inputs(mesh, "raw")
    calls = []
    grouping = piola.cell_groups

    def counted(keys):
        calls.append(len(keys))
        return grouping(keys)

    monkeypatch.setattr(piola, "cell_groups", counted)
    monkeypatch.setattr(space, "cell_groups", counted)
    check_conformity(mesh, dofmap, coeffs, cache=BasisCache())
    assert calls == [mesh.num_cells]


def test_raw_conformity_leaves_the_cached_inverses_alone(graded_mesh):
    # raw coefficients need dof matrices only; asking the cache for inverses
    # would add a condition check and move its hit and miss counts
    class NoInverses(BasisCache):
        def groups(self, mesh):
            raise AssertionError("groups called")

        def get(self, key, Tinv):
            raise AssertionError("get called")

    dofmap, raw = report_inputs(graded_mesh, "raw")
    check_conformity(graded_mesh, dofmap, raw, cache=NoInverses())


def bad_inputs():
    """Calls with input of the wrong shape, and the message each must raise."""
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    other = build_dof_map(make_lshape(2))
    nk, nd = mesh.num_cells, dofmap.ndofs
    raw_msg = r"expected raw coefficients of shape \(ncells, 20\) = \(%d, 20\), got shape " % nk
    vec_msg = r"expected a global coefficient vector of length ndofs = %d" % nd
    map_msg = r"the dof map expands %d dofs into %d cells, but the mesh has %d dofs" % (
        other.ndofs, other.P.shape[0] // 20, nd)
    cases = [
        ("raw-19-columns", check_conformity, dofmap, np.zeros((nk, 19)), raw_msg),
        ("raw-extra-cell", check_conformity, dofmap, np.zeros((nk + 1, 20)), raw_msg),
        ("global-short", check_conformity, dofmap, np.zeros(nd - 1), raw_msg),
        # a global vector is expanded by cell_coefficients first
        ("global-vector", check_conformity, dofmap, np.zeros(nd), raw_msg),
        ("foreign-dofmap", check_conformity, other, np.zeros((other.P.shape[0] // 20, 20)),
         map_msg),
        ("coefficients-of-raw", cell_coefficients, dofmap, np.zeros((nk, 20)), vec_msg),
        ("coefficients-long", cell_coefficients, dofmap, np.zeros(nd + 1), vec_msg),
        ("coefficients-foreign-dofmap", cell_coefficients, other, np.zeros(other.ndofs), map_msg),
    ]
    return [pytest.param(mesh, *case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("mesh, fn, dofmap, x, message", bad_inputs())
def test_wrong_input_shape_rejected(mesh, fn, dofmap, x, message):
    args = (mesh, dofmap, x) if fn is check_conformity else (mesh, dofmap, BasisCache(), x)
    with pytest.raises(ValueError, match=message):
        fn(*args)
