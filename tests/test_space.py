"""Global degrees of freedom: dimension counts, jump elimination, conformity."""

import numpy as np
import pytest

from ddivfem.mesh import EX1_CORNERS, make_lshape, make_parallelogram_domain
from ddivfem.piola import BasisCache, cell_geometry, physical_dofs
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
    assert len(dofmap.eliminated) == len(mesh.interior_vertices)
    for (k, c), partners in dofmap.eliminated.items():
        n0 = mesh.cells[k][c]
        patch = mesh.vertex_cells[n0]
        assert (k, c) in patch
        assert len(partners) == len(patch) - 1
        assert dofmap.jump_id[(k, c)] == -1


def test_any_coefficient_vector_is_conforming():
    # the numbering shares edge dofs and eliminates one jump per interior
    # vertex, so every global vector describes a conforming tensor field
    mesh = make_parallelogram_domain(EX1_CORNERS, 2)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    rng = np.random.default_rng(23)
    for _ in range(3):
        m = rng.standard_normal(dofmap.ndofs)
        report = check_conformity(mesh, dofmap, m, cache=cache)
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


def test_conformity_of_mapped_coefficients():
    mesh = make_lshape(1)
    dofmap = build_dof_map(mesh)
    cache = BasisCache()
    rng = np.random.default_rng(17)
    m = rng.standard_normal(dofmap.ndofs)
    coeffs = cell_coefficients(mesh, dofmap, cache, m)
    assert coeffs.shape == (mesh.num_cells, 20)
    report = check_conformity(mesh, dofmap, coeffs, cache=cache)
    assert report["max_violation"] < 1e-12 * max(1.0, np.abs(m).max())


def quadrature_conformity(mesh, basis, coeffs, nq):
    """The conformity maxima from physical_dofs of each cell's tensor.

    Reconstructs every cell's reference tensor from its coefficients,
    evaluates its 20 functionals by edge quadrature, and scans the edges and
    interior vertices in index order, keeping the first location of each
    maximum.
    """
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
        s = abs(sum(phys[k][16 + c] for k, c in mesh.vertex_cells[v]))
        if s > out["max_jump_sum"]:
            out["max_jump_sum"], out["worst_vertex"] = s, v
    return out


@pytest.mark.parametrize("nq", [4, 8])
def test_conformity_of_raw_coefficients_matches_quadrature(graded_mesh, nq):
    cache = BasisCache()
    rng = np.random.default_rng(31)
    for mesh in (graded_mesh, make_lshape(1)):
        dofmap = build_dof_map(mesh)
        raw = rng.standard_normal((mesh.num_cells, 20))
        report = check_conformity(mesh, dofmap, raw, cache=cache, nq=nq)
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
