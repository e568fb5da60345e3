"""Mesh generation, topology counts, refinement, and the text format."""

import numpy as np
import pytest

from ddivfem.mesh import (
    EX1_CORNERS,
    Mesh,
    MeshError,
    canonical_form,
    import_text,
    make_lshape,
    make_parallelogram_domain,
    refine_uniform,
)

SQUARE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]


def counts(mesh):
    return (
        mesh.num_vertices,
        mesh.num_cells,
        mesh.num_edges,
        len(mesh.interior_vertices),
    )


def test_parallelogram_domain_counts():
    assert counts(make_parallelogram_domain(SQUARE, 0)) == (4, 1, 4, 0)
    assert counts(make_parallelogram_domain(EX1_CORNERS, 1)) == (9, 4, 12, 1)
    assert make_parallelogram_domain(EX1_CORNERS, 4).num_cells == 256


def test_lshape_counts_and_boundary_partition():
    m0 = make_lshape(0)
    assert counts(m0) == (8, 3, 10, 0)
    assert len(m0.dirichlet_edges()) == 2
    assert len(m0.neumann_edges()) == 6

    m1 = make_lshape(1)
    assert counts(m1) == (21, 12, 32, 5)
    assert len(m1.dirichlet_edges()) == 4
    assert len(m1.neumann_edges()) == 12

    m2 = make_lshape(2)
    assert len(m2.dirichlet_edges()) == 8
    assert len(m2.neumann_edges()) == 24
    assert make_lshape(3).num_cells == 192


def test_dirichlet_edges_lie_on_the_notch():
    mesh = make_lshape(2)
    for e in mesh.dirichlet_edges():
        a, b = mesh.vertices[mesh.edges[e][0]], mesh.vertices[mesh.edges[e][1]]
        mid = 0.5 * (a + b)
        on_x_leg = abs(mid[1]) < 1e-12 and -1.0 < mid[0] < 0.0
        on_y_leg = abs(mid[0]) < 1e-12 and -1.0 < mid[1] < 0.0
        assert on_x_leg or on_y_leg


def test_euler_relation_across_generated_meshes():
    meshes = [
        make_parallelogram_domain(EX1_CORNERS, lvl) for lvl in range(4)
    ] + [make_lshape(lvl) for lvl in range(3)]
    for mesh in meshes:
        assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1


def test_refinement_matches_direct_generation():
    fine = refine_uniform(make_lshape(0))
    assert canonical_form(fine) == canonical_form(make_lshape(1))

    fine = refine_uniform(make_parallelogram_domain(EX1_CORNERS, 1))
    assert canonical_form(fine) == canonical_form(make_parallelogram_domain(EX1_CORNERS, 2))


def test_refinement_halves_h_and_keeps_labels():
    coarse = make_lshape(1)
    fine = refine_uniform(coarse)
    assert fine.h == pytest.approx(0.5 * coarse.h, rel=1e-14)
    assert len(fine.dirichlet_edges()) == 2 * len(coarse.dirichlet_edges())
    assert len(fine.neumann_edges()) == 2 * len(coarse.neumann_edges())


def test_interior_vertex_patches():
    mesh = make_parallelogram_domain(EX1_CORNERS, 1)
    (n0,) = mesh.interior_vertices
    patch = mesh.vertex_cells[n0]
    assert len(patch) == 4
    assert sorted(k for k, _ in patch) == [0, 1, 2, 3]
    # every patch member really holds the vertex at the stated corner
    for k, c in patch:
        assert mesh.cells[k][c] == n0


def test_text_round_trip(tmp_path):
    mesh = make_lshape(1)
    path = tmp_path / "mesh.txt"
    mesh.export_text(path)
    back = import_text(path)
    assert canonical_form(back) == canonical_form(mesh)
    assert len(back.dirichlet_edges()) == len(mesh.dirichlet_edges())

    header = path.read_text().splitlines()[0].split()
    assert [int(v) for v in header] == [21, 12, 32]


UNIT_SQUARE_TEXT = [
    "4 1 4", "0 0", "1 0", "1 1", "0 1", "0 1 2 3", "0 1 D", "1 2 D", "2 3 N", "0 3 D"
]


def _edited(changes):
    lines = list(UNIT_SQUARE_TEXT)
    for i, line in changes.items():
        lines[i] = line
    return "\n".join(line for line in lines if line is not None) + "\n"


MALFORMED_TEXT = {
    "empty": "",
    "truncated": "3 1 4\n0 0\n1 0\n",
    "no-cell-line": _edited({5: None, 6: None, 7: None, 8: None, 9: None}),
    "short-header": _edited({0: "4 1"}),
    "non-numeric-header": _edited({0: "4 one 4"}),
    "negative-count": _edited({0: "-4 1 4"}),
    "wrong-edge-count": _edited({0: "4 1 5"}),
    "short-vertex": _edited({1: "0"}),
    "non-numeric-vertex": _edited({2: "1 zero"}),
    "nan-vertex": _edited({2: "nan 0"}),
    "short-cell": _edited({5: "0 1 2"}),
    "non-integer-cell": _edited({5: "0 1 2.5 3"}),
    "cell-index-out-of-range": _edited({5: "0 1 2 7"}),
    "short-label": _edited({6: "0 1"}),
    "unknown-label": _edited({6: "0 1 X"}),
    "label-on-a-diagonal": _edited({6: "0 2 D"}),
}


@pytest.mark.parametrize("text", MALFORMED_TEXT.values(), ids=MALFORMED_TEXT.keys())
def test_malformed_text_raises_mesh_error(tmp_path, text):
    path = tmp_path / "mesh.txt"
    path.write_text(_edited({}))
    assert import_text(path).edge_label.tolist() == ["D", "D", "N", "D"]
    path.write_text(text)
    with pytest.raises(MeshError):
        import_text(path)


def test_degenerate_corners_rejected():
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [1, 0], [2, 0], [1, 0]], 1)
    # not a parallelogram
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [1, 0], [1, 1], [-0.5, 1]], 1)
    # clockwise orientation
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [0, 1], [1, 1], [1, 0]], 1)


#: closure defect 0.3: a trapezoid, not a parallelogram
TRAPEZOID = np.array([[0.0, 0.0], [1.0, 0.0], [0.7, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("scale", [1.0, 1e-13])
def test_closure_tolerance_scales_with_the_cell(scale):
    corners = scale * TRAPEZOID
    with pytest.raises(MeshError):
        Mesh(corners, np.array([[0, 1, 2, 3]]))
    with pytest.raises(MeshError):
        make_parallelogram_domain(corners, 0)


def test_small_parallelogram_far_from_the_origin_accepted():
    corners = 1.0 + 1e-9 * np.array([[0.0, 0.0], [1.0, 0.0], [1.3, 1.0], [0.3, 1.0]])
    assert Mesh(corners, np.array([[0, 1, 2, 3]])).num_cells == 1
    assert make_parallelogram_domain(corners, 1).num_cells == 4


def test_shape_regularity_guard():
    # aspect ratio far beyond the bound: singular values 24 vs ~1/24
    skew = [[0.0, 0.0], [1.0, 0.0], [25.0, 1.0], [24.0, 1.0]]
    with pytest.raises(MeshError):
        make_parallelogram_domain(skew, 0)


def test_direct_construction_validates():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [3.0, 3.0]])
    cells = np.array([[0, 1, 2, 3]])
    with pytest.raises(MeshError):
        Mesh(verts, cells)  # vertex 4 unused

    verts = verts[:4]
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 1, 3]]))  # repeated vertex
    for bad in ([[0, 1, 2, 4]], [[-1, 1, 2, 3]]):
        with pytest.raises(MeshError):
            Mesh(verts, np.array(bad))  # corner index out of range
    with pytest.raises(MeshError):
        Mesh(np.where(verts == 1.0, np.nan, verts), cells)  # non-finite coordinates
