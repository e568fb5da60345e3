"""Mesh generation, topology counts, refinement, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellspec import canonical_form
from ddivfem.mesh import (
    EX1_CORNERS,
    Mesh,
    MeshError,
    cell_groups,
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
    patch = np.argwhere(mesh.cells == n0)
    assert len(patch) == 4
    assert sorted(k for k, _ in patch) == [0, 1, 2, 3]
    # the four cells meet there at four different corners
    assert sorted(c for _, c in patch) == [0, 1, 2, 3]
    # and the four edges at it are interior
    at = np.nonzero((mesh.edges == n0).any(axis=1))[0]
    assert len(at) == 4 and np.all(mesh.edge_cells[at, 1] >= 0)


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
    "no-cells": "4 0 0\n0 0\n1 0\n1 1\n0 1\n",
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
    "label-on-a-point": _edited({6: "0 0 D"}),
    "cell-index-beyond-int64": _edited({5: "0 1 2 99999999999999999999"}),
    "conflicting-labels": _edited({9: "1 0 N"}),
}


@pytest.mark.parametrize("text", MALFORMED_TEXT.values(), ids=MALFORMED_TEXT.keys())
def test_malformed_text_raises_mesh_error(tmp_path, text):
    path = tmp_path / "mesh.txt"
    path.write_text(_edited({}))
    assert import_text(path).edge_label.tolist() == ["D", "D", "N", "D"]
    path.write_text(text)
    with pytest.raises(MeshError):
        import_text(path)


@pytest.mark.parametrize(
    "corners",
    [
        [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]],
        # finite edge vectors, and a diagonal whose length overflows
        [[0.0, 0.0], [1.5e308, 0.0], [1.5e308, 1.5e308], [0.0, 1.5e308]],
    ],
)
def test_overflowing_edge_vectors_rejected(tmp_path, corners):
    # under the suite's RuntimeWarning policy an overflow would surface as a
    # warning, and without it as a "degenerate or clockwise" cell
    with pytest.raises(MeshError, match="cell 0 has an edge vector or diagonal that is not finite"):
        Mesh(np.array(corners), np.array([[0, 1, 2, 3]]))
    path = tmp_path / "mesh.txt"
    path.write_text(_edited({i + 1: "%r %r" % tuple(c) for i, c in enumerate(corners)}))
    with pytest.raises(MeshError, match="not finite"):
        import_text(path)
    # the same square at 1e308 has finite vectors and diameter
    assert Mesh(np.array(UNIT_SQUARE) * 1e308, np.array([[0, 1, 2, 3]])).h == np.hypot(1e308, 1e308)


#: what a mutated field may read: special and extreme numbers, labels, junk
MUTANTS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e20", "-1e20", "0", "-1", "2.5",
     "21", "99999999999999999999", "D", "N", "X", "0x1"]
)


@st.composite
def mutated_mesh_text(draw):
    """The text of make_lshape(1), scaled, with counts, numbers, lines and labels mutated."""
    mesh = make_lshape(1)
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    b = mesh.boundary_edges
    lines = [["21", "12", "32"]]
    lines += [["%r" % (scale * v) for v in xy] for xy in mesh.vertices.tolist()]
    lines += [[str(c) for c in cell] for cell in mesh.cells.tolist()]
    lines += [[str(lo), str(hi), lab] for (lo, hi), lab in zip(mesh.edges[b].tolist(), mesh.edge_label[b])]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["count", "field", "truncate", "drop", "label", "far"]))
        if kind == "count":
            lines[0] = lines[0] + ["0"] * (3 - len(lines[0]))
            lines[0][draw(st.integers(0, 2))] = str(draw(st.integers(-1, 40)))
        elif kind == "field" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(MUTANTS)
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "label":
            lines.append([str(draw(st.integers(-1, 22))), str(draw(st.integers(-1, 22))),
                          draw(st.sampled_from(["D", "N", "X"]))])
        elif kind == "far" and len(lines) > 21:
            # opposite corners of one cell at -+1e308: its diagonal overflows
            lo, hi = mesh.cells[draw(st.integers(0, mesh.num_cells - 1))][[0, 2]]
            lines[1 + lo], lines[1 + hi] = ["-1e308", "-1e308"], ["1e308", "1e308"]
    return "\n".join(" ".join(fields) for fields in lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=mutated_mesh_text())
def test_import_of_a_mutated_file_is_a_mesh_or_a_mesh_error(tmp_path_factory, text):
    # whatever the file says, import_text returns a Mesh or raises MeshError:
    # no other exception, and no RuntimeWarning under the suite's policy
    path = tmp_path_factory.getbasetemp() / "mutated-mesh.txt"
    path.write_text(text)
    try:
        mesh = import_text(path)
    except MeshError:
        return
    assert isinstance(mesh, Mesh) and np.all(np.isfinite(mesh.h_cell))


def test_label_on_an_interior_edge_rejected():
    mesh = make_lshape(1)
    e = np.nonzero(mesh.edge_cells[:, 1] >= 0)[0][0]
    with pytest.raises(MeshError, match="names no boundary edge"):
        Mesh(mesh.vertices, mesh.cells, boundary_labels={frozenset(mesh.edges[e].tolist()): "N"})


def test_edge_shared_by_three_cells_rejected():
    # three unit squares hinged on the edge from vertex 0 to vertex 1
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [1, -1], [0, -1], [1, 2], [0, 2]], dtype=float
    )
    cells = np.array([[0, 1, 2, 3], [1, 0, 5, 4], [0, 1, 6, 7]])
    with pytest.raises(MeshError, match="shared by more than two cells"):
        Mesh(verts, cells)


def test_degenerate_corners_rejected():
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [1, 0], [2, 0], [1, 0]], 1)
    # not a parallelogram
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [1, 0], [1, 1], [-0.5, 1]], 1)
    # clockwise orientation
    with pytest.raises(MeshError):
        make_parallelogram_domain([[0, 0], [0, 1], [1, 1], [1, 0]], 1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 0), (2, 1)])
def test_corners_that_are_not_finite_rejected(bad, where):
    # also the third corner, which only closes the parallelogram and places
    # no vertex
    corners = np.array(EX1_CORNERS, dtype=float)
    corners[where] = bad
    with pytest.raises(MeshError, match="finite"):
        make_parallelogram_domain(corners, 1)


#: closure defect 0.3: a trapezoid, not a parallelogram
TRAPEZOID = np.array([[0.0, 0.0], [1.0, 0.0], [0.7, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e250])
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


@pytest.mark.parametrize("scale", [1e-100, 1e-15, 1.0, 1e8, 1e100, 1e200, 1e250])
def test_shape_regularity_guard(scale):
    # aspect ratio far beyond the bound: singular values 24 vs ~1/24
    skew = scale * np.array([[0.0, 0.0], [1.0, 0.0], [25.0, 1.0], [24.0, 1.0]])
    with pytest.raises(MeshError, match="shape regularity"):
        make_parallelogram_domain(skew, 0)
    # the unit square at the same scale passes, with a finite diameter
    mesh = make_parallelogram_domain(scale * np.array(UNIT_SQUARE), 0)
    assert mesh.h == pytest.approx(np.sqrt(2.0) * scale, rel=1e-15)


UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("level", [-1, 1.5, "2"])
@pytest.mark.parametrize("kind", ["parallelogram", "lshape"])
def test_invalid_level_is_named(kind, level):
    make = {
        "parallelogram": lambda lvl: make_parallelogram_domain(EX1_CORNERS, lvl),
        "lshape": make_lshape,
    }[kind]
    with pytest.raises(MeshError, match="refinement level .* got %r" % (level,)):
        make(level)


def test_direct_construction_validates():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [3.0, 3.0]])
    cells = np.array([[0, 1, 2, 3]])
    with pytest.raises(MeshError):
        Mesh(verts, cells)  # vertex 4 unused

    verts = verts[:4]
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 1, 3]]))  # repeated vertex
    for bad in ([[0, 1, 2, 4]], [[-1, 1, 2, 3]], [[0, 1, 2, 10**20]]):
        with pytest.raises(MeshError):
            Mesh(verts, bad)  # corner index out of range
    with pytest.raises(MeshError, match="must be integers"):
        Mesh(verts, [[0, 1, 2.7, 3]])  # not truncated to [0, 1, 2, 3]
    with pytest.raises(MeshError):
        Mesh(np.where(verts == 1.0, np.nan, verts), cells)  # non-finite coordinates


# -- one numbering of equal keys ----------------------------------------------


@st.composite
def repeated_keys(draw, width, elements, dtype=float):
    """Keys drawn again and again from a few distinct ones, (n,) or (n, width).

    A float key gets the sign of some of its zeros flipped.
    """
    npool = draw(st.integers(1, 6))
    pool = draw(arrays(dtype, (npool,) if width is None else (npool, width), elements=elements))
    picks = draw(st.lists(st.integers(0, npool - 1), min_size=1, max_size=40))
    keys = pool[picks]
    if dtype == float:
        flip = draw(arrays(bool, keys.shape)) & (keys == 0.0)
        keys[flip] = -keys[flip]
    return keys


# 1-D edge and lattice-node keys; rows of the 17 values of a cell key, where
# -0.0 and 0.0 must form one group; rows of 112 like the key of a 2 x 2 patch
# of 36 nonzeros (four cell inverses, then row ranks, columns and values)
_KEYS = {
    "int64": repeated_keys(None, st.integers(-(2**62), 2**62), dtype=np.int64),
    "cell": repeated_keys(17, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])),
    "patch": repeated_keys(112, st.sampled_from([-1.0, 0.0, -0.0, 1.0, 3.0, 91.0, -0.25])),
}


def first_appearance(keys):
    """``(first, group)`` of keys numbered as a dict of tuples first meets them."""
    seen = {}
    group = [seen.setdefault(tuple(np.atleast_1d(key).tolist()), len(seen)) for key in keys]
    return [group.index(g) for g in range(len(seen))], group


@pytest.mark.parametrize("kind", sorted(_KEYS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cell_groups_number_keys_by_first_appearance(kind, data):
    keys = data.draw(_KEYS[kind])
    first, group = cell_groups(keys)
    want_first, want_group = first_appearance(keys)
    assert first.tolist() == want_first
    assert group.tolist() == want_group
    assert np.array_equal(keys[first[group]], keys)
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(group[first], np.arange(len(first)))
