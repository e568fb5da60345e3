"""Array-built mesh topology against the per-cell loops it replaced.

``LoopMesh`` and the ``loop_*`` generators below are the dict-and-loop
construction the mesh module used before its topology was built with array
operations.  They number vertices, edges and patches by first appearance in
cell order, and the array code must reproduce every one of those numbers
bit for bit, so that every vertex, edge and dof keeps its number.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from cellspec import as_scipy
from ddivfem.interpolation import field_cell_jump, field_edge_dofs
from ddivfem.mesh import (
    DIRICHLET,
    EX1_CORNERS,
    NEUMANN,
    Mesh,
    MeshError,
    make_lshape,
    make_parallelogram_domain,
    refine_uniform,
)
from ddivfem.problems import get_example
from ddivfem.space import build_dof_map
from ddivfem.system import DATA_QUAD_POINTS, neumann_constraints


class LoopMesh(Mesh):
    """Mesh whose topology and labels come from the per-cell loops."""

    def _build_topology(self):
        nk = len(self.cells)
        edge_index = {}
        edges = []
        cell_edges = np.zeros((nk, 4), dtype=int)
        forward = np.zeros((nk, 4), dtype=bool)
        edge_cells = []
        for k in range(nk):
            quad = self.cells[k]
            for j in range(4):
                a, b = int(quad[j]), int(quad[(j + 1) % 4])
                if a == b:
                    raise MeshError("cell %d repeats vertex %d" % (k, a))
                key = (min(a, b), max(a, b))
                e = edge_index.get(key)
                if e is None:
                    e = len(edges)
                    edge_index[key] = e
                    edges.append(key)
                    edge_cells.append([k, -1])
                else:
                    if edge_cells[e][1] != -1:
                        raise MeshError("edge %s shared by more than two cells" % (key,))
                    edge_cells[e][1] = k
                cell_edges[k, j] = e
                forward[k, j] = a < b
        self.edges = np.array(edges, dtype=int)
        self.cell_edges = cell_edges
        self.cell_edge_forward = forward
        self.edge_cells = np.array(edge_cells, dtype=int)

        self.boundary_edges = np.nonzero(self.edge_cells[:, 1] == -1)[0]
        on_boundary = np.zeros(len(self.vertices), dtype=bool)
        for e in self.boundary_edges:
            on_boundary[self.edges[e]] = True
        self.interior_vertices = np.nonzero(~on_boundary)[0]

        # vertex -> (cell, local corner) incidence, in cell order
        patches = [[] for _ in range(len(self.vertices))]
        for k in range(nk):
            for c in range(4):
                patches[self.cells[k, c]].append((k, c))
        self.vertex_cells = patches

        d1 = self.vertices[self.cells[:, 2]] - self.vertices[self.cells[:, 0]]
        d2 = self.vertices[self.cells[:, 3]] - self.vertices[self.cells[:, 1]]
        self.h_cell = np.maximum(np.hypot(*d1.T), np.hypot(*d2.T))

    def _apply_labels(self, boundary_labels, default_label=DIRICHLET):
        labels = np.full(len(self.edges), "", dtype="<U1")
        boundary_labels = boundary_labels or {}
        for e in self.boundary_edges:
            a, b = self.edges[e]
            lab = boundary_labels.get(frozenset((int(a), int(b))), default_label)
            if lab not in (DIRICHLET, NEUMANN):
                raise MeshError("boundary label must be 'D' or 'N', got %r" % lab)
            labels[e] = lab
        self.edge_label = labels


def loop_parallelogram_domain(corners, level):
    corners = np.asarray(corners, dtype=float)
    u = corners[1] - corners[0]
    w = corners[3] - corners[0]
    n = 2**int(level)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    s = (ii / n).ravel()
    t = (jj / n).ravel()
    vertices = corners[0][None, :] + np.outer(s, u) + np.outer(t, w)
    cells = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = (i + 1) * (n + 1) + j
            cells.append([v00, v10, v10 + 1, v00 + 1])
    return LoopMesh(vertices, np.array(cells))


def loop_lshape(level):
    n = 2**int(level)
    index = {}
    coords = []

    def node(i, j):
        key = (i, j)
        if key not in index:
            index[key] = len(coords)
            coords.append((i / n, j / n))
        return index[key]

    cells = []
    for i0, i1, j0, j1 in [(0, n, -n, 0), (0, n, 0, n), (-n, 0, 0, n)]:
        for i in range(i0, i1):
            for j in range(j0, j1):
                cells.append([node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1)])
    labels = {}
    for i in range(-n, 0):
        labels[frozenset((node(i, 0), node(i + 1, 0)))] = DIRICHLET
    for j in range(-n, 0):
        labels[frozenset((node(0, j), node(0, j + 1)))] = DIRICHLET
    return LoopMesh(np.array(coords), np.array(cells), boundary_labels=labels, default_label=NEUMANN)


def loop_refine(mesh):
    nv, ne = mesh.num_vertices, mesh.num_edges
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    centers = 0.5 * (mesh.vertices[mesh.cells[:, 0]] + mesh.vertices[mesh.cells[:, 2]])
    vertices = np.vstack([mesh.vertices, mid, centers])
    cells = []
    for k in range(mesh.num_cells):
        a, b, c, d = mesh.cells[k]
        m = [nv + mesh.cell_edges[k, j] for j in range(4)]
        z = nv + ne + k
        cells.append([a, m[0], z, m[3]])
        cells.append([m[0], b, m[1], z])
        cells.append([z, m[1], c, m[2]])
        cells.append([m[3], z, m[2], d])
    labels = {}
    for e in mesh.boundary_edges:
        a, b = (int(s) for s in mesh.edges[e])
        lab = mesh.edge_label[e]
        labels[frozenset((a, nv + int(e)))] = lab
        labels[frozenset((b, nv + int(e)))] = lab
    return LoopMesh(vertices, np.array(cells), boundary_labels=labels)


def loop_neumann_constraints(mesh, dofmap, data, nq=DATA_QUAD_POINTS):
    """The Neumann rows with patches read vertex by vertex from ``vertex_cells``."""
    incident = {}
    for e in mesh.boundary_edges:
        for v in mesh.edges[e]:
            incident.setdefault(int(v), []).append(mesh.edge_label[e])
    inside = [v for v, labs in sorted(incident.items()) if all(lab == "N" for lab in labs)]
    edges = mesh.neumann_edges()
    patches = [kc for v in inside for kc in mesh.vertex_cells[v]]
    k, c = np.array(patches, dtype=int).reshape(-1, 2).T
    gids = dofmap.jump_id[k, c]
    edge_vals = np.stack(field_edge_dofs(mesh, edges, data.field, nq=nq), axis=-1)
    rows = np.concatenate([(4 * edges[:, None] + np.arange(4)).ravel(), gids])
    vals = np.concatenate([edge_vals.ravel(), field_cell_jump(mesh, k, c, data.field)])
    nc = len(rows)
    L = sp.csr_matrix((np.ones(nc), (np.arange(nc), rows)), shape=(nc, dofmap.ndofs))
    return L, vals


CASES = (
    [("parallelogram", lvl) for lvl in range(7)]
    + [("lshape", lvl) for lvl in range(7)]
    + [("refined-lshape", 2), ("refined-parallelogram", 3), ("graded", None)]
)


def mesh_pair(kind, level, graded_mesh):
    """The same mesh from the array code and from the loops."""
    if kind == "parallelogram":
        return make_parallelogram_domain(EX1_CORNERS, level), loop_parallelogram_domain(
            EX1_CORNERS, level
        )
    if kind == "lshape":
        return make_lshape(level), loop_lshape(level)
    if kind == "refined-lshape":
        return refine_uniform(make_lshape(level)), loop_refine(loop_lshape(level))
    if kind == "refined-parallelogram":
        return refine_uniform(make_parallelogram_domain(EX1_CORNERS, level)), loop_refine(
            loop_parallelogram_domain(EX1_CORNERS, level)
        )
    return graded_mesh, LoopMesh(graded_mesh.vertices, graded_mesh.cells)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,level", CASES, ids=["%s-%s" % case for case in CASES])
def test_array_topology_matches_the_loops(kind, level, graded_mesh):
    mesh, ref = mesh_pair(kind, level, graded_mesh)
    for name in (
        "vertices",
        "cells",
        "edges",
        "cell_edges",
        "cell_edge_forward",
        "edge_cells",
        "edge_label",
        "boundary_edges",
        "interior_vertices",
        "h_cell",
    ):
        assert same_bits(getattr(mesh, name), getattr(ref, name)), name

    dofmap, ref_dofmap = build_dof_map(mesh), build_dof_map(ref)
    assert same_bits(dofmap.jump_id, ref_dofmap.jump_id)
    P, P_ref = dofmap.P, ref_dofmap.P
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(P, name), getattr(P_ref, name)), name

    # the ex2 tractions on whatever Neumann part the mesh has
    data = get_example("ex2").neumann
    L, d = neumann_constraints(mesh, dofmap, data)
    L_ref, d_ref = loop_neumann_constraints(ref, ref_dofmap, data)
    assert (as_scipy(L) != L_ref).nnz == 0 and L.shape == L_ref.shape
    assert same_bits(d, d_ref)

