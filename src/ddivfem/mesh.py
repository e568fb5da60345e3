"""Conforming parallelogram meshes with labeled boundary.

Vertices are float coordinates, cells are counterclockwise vertex quadruples,
and every cell must be a parallelogram.  Edges are derived from the cells and
oriented from their lower-numbered to their higher-numbered vertex; that
global orientation is what the degree-of-freedom bookkeeping downstream
relies on, so it is fixed here once and for all.

Mesh generation works on integer lattices and only converts to floating
point at the end, which keeps vertex identification exact across block
seams and refinement levels.

:func:`cell_groups` is the library's one numbering of equal keys: edges and
lattice nodes here, equal cells in ``piola`` and equal cells and blocks in ``linsolve``.
"""

import operator

import numpy as np

#: corners of the sheared parallelogram domain used by the first benchmark,
#: counterclockwise; the image of the unit-square map (s, t) -> (s, s + t)
EX1_CORNERS = np.array([[-1.0, -2.0], [1.0, 0.0], [1.0, 2.0], [-1.0, 0.0]])

#: cells may not be more anisotropic than this (largest over smallest
#: singular value of the element map)
SHAPE_REGULARITY_LIMIT = 10.0

DIRICHLET = "D"
NEUMANN = "N"


class MeshError(ValueError):
    """Raised for meshes violating a structural invariant."""


def cell_groups(keys):
    """Groups of equal keys, (n,) integers or rows (n, m) compared by their bytes.

    Adding 0 folds -0.0 into 0.0 first.  Returns ``(first, group)``: the
    first key of each group, ascending, and the group (n,) of every key, so
    that ``keys[first[group]]`` equals ``keys``.
    """
    keys = np.ascontiguousarray(keys + 0)
    if keys.ndim == 2:
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # numpy releases differ in the shape of the inverse; ravel keeps it 1-D
    return first[order], np.argsort(order)[inverse.ravel()]


def _relative_to_largest(v):
    """Corner quadruples (..., 4, 2) divided by the largest coordinate of each.

    Products of the results neither overflow nor underflow at any scale.
    """
    scale = np.maximum(np.abs(v).max(axis=(-2, -1)), np.finfo(float).tiny)
    return v / scale[..., None, None]


class Mesh:
    """A conforming mesh of parallelograms.

    Parameters
    ----------
    vertices : (nv, 2) array
    cells : (nk, 4) int array
        Counterclockwise corner quadruples.
    boundary_labels : dict, optional
        Maps frozenset({a, b}) vertex pairs of boundary edges to 'D' or 'N'.
        Every key must name a boundary edge; the others get
        ``default_label``.

    Attributes
    ----------
    edges : (ne, 2) int array
        Each row (lo, hi) with lo < hi; the edge points from lo to hi.
    cell_edges : (nk, 4) int array
        Global edge index of each local edge j (local corners j, j+1).
    cell_edge_forward : (nk, 4) bool array
        True where the local traversal direction agrees with lo -> hi.
    edge_cells : (ne, 2) int array
        Adjacent cells, -1 padding for boundary edges.
    edge_label : (ne,) str array
        'D' or 'N' on boundary edges, '' inside.
    """

    def __init__(self, vertices, cells, boundary_labels=None, default_label=DIRICHLET):
        self.vertices = np.asarray(vertices, dtype=float)
        # indices are checked before the cast to int, which would truncate
        # 2.7 to 2 and wrap or warn on values beyond the integer range
        try:
            cells = np.asarray(cells)
            if cells.dtype.kind not in "iu":
                cells = cells.astype(float)
        except (TypeError, ValueError, OverflowError):
            raise MeshError("cell corner indices must be integers") from None
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 4:
            raise MeshError("cells must be an (nk, 4) array")
        if len(cells) == 0:
            raise MeshError("a mesh needs at least one cell")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if not np.all(np.isfinite(cells) & (np.round(cells) == cells)):
            raise MeshError("cell corner indices must be integers")
        if cells.min() < 0 or cells.max() >= len(self.vertices):
            raise MeshError("cell corner indices must lie in [0, %d)" % len(self.vertices))
        self.cells = cells.astype(int)
        self._build_topology()
        self._apply_labels(boundary_labels, default_label)
        self.validate()

    # -- construction ------------------------------------------------------

    def _build_topology(self):
        nk, nv = len(self.cells), len(self.vertices)
        # local edge j of a cell runs from its corner j to its corner j + 1
        a, b = self.cells, self.cells[:, [1, 2, 3, 0]]
        if np.any(a == b):
            k, j = np.argwhere(a == b)[0]
            raise MeshError("cell %d repeats vertex %d" % (k, a[k, j]))
        lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
        first, ids = cell_groups(lo * nv + hi)
        count = np.bincount(ids)
        if np.any(count > 2):
            e = first[np.argmax(count > 2)]
            raise MeshError("edge %s shared by more than two cells" % ((int(lo[e]), int(hi[e])),))
        self.edges = np.stack([lo[first], hi[first]], axis=1)
        self.cell_edges = ids.reshape(nk, 4)
        self.cell_edge_forward = a < b
        # an edge's second cell is the one of its last occurrence in cell order
        last = (np.argsort(ids, kind="stable") // 4)[np.cumsum(count) - 1]
        self.edge_cells = np.stack([first // 4, np.where(count == 2, last, -1)], axis=1)

        self.boundary_edges = np.nonzero(self.edge_cells[:, 1] == -1)[0]
        on_boundary = np.zeros(nv, dtype=bool)
        on_boundary[self.edges[self.boundary_edges]] = True
        self.interior_vertices = np.nonzero(~on_boundary)[0]

        # coordinates near the largest float can overflow the edge vectors
        # and diagonals; the cell is named before any product of them is formed
        v = self.vertices[self.cells]
        with np.errstate(over="ignore"):
            sides = v[:, [1, 2, 3, 0]] - v
            d1, d2 = v[:, 2] - v[:, 0], v[:, 3] - v[:, 1]
            self.h_cell = np.maximum(np.hypot(*d1.T), np.hypot(*d2.T))
        bad = np.flatnonzero(~(np.isfinite(sides).all(axis=(1, 2)) & np.isfinite(self.h_cell)))
        if len(bad):
            raise MeshError("cell %d has an edge vector or diagonal that is not finite" % bad[0])

    def _apply_labels(self, boundary_labels, default_label):
        given = dict(boundary_labels or {})
        labels = np.full(len(self.edges), "", dtype="<U1")
        for e in self.boundary_edges:
            lab = given.pop(frozenset(self.edges[e].tolist()), default_label)
            if lab not in (DIRICHLET, NEUMANN):
                raise MeshError("boundary label must be 'D' or 'N', got %r" % lab)
            labels[e] = lab
        if given:
            pair = sorted(next(iter(given)))
            raise MeshError("boundary label %s names no boundary edge" % pair)
        self.edge_label = labels

    # -- queries -------------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def h(self):
        return float(self.h_cell.max())

    def dirichlet_edges(self):
        return np.nonzero(self.edge_label == DIRICHLET)[0]

    def neumann_edges(self):
        return np.nonzero(self.edge_label == NEUMANN)[0]

    # -- invariants ----------------------------------------------------------

    def validate(self):
        """Raise MeshError on any violated structural invariant."""
        # the closure defect is measured against its rounding floor, the
        # largest corner coordinate, so the test holds at every scale
        v = self.vertices[self.cells]
        w = _relative_to_largest(v)
        defect = np.linalg.norm(w[:, 0] - w[:, 1] + w[:, 2] - w[:, 3], axis=1)
        bad = np.nonzero(defect > 1e-12)[0]
        if len(bad):
            raise MeshError("cell %d is not a parallelogram" % bad[0])

        # the edge vectors of each cell divided by its largest component, so
        # that the products below neither underflow nor overflow
        b1 = v[:, 1] - v[:, 0]
        b2 = v[:, 3] - v[:, 0]
        scale = np.abs(np.hstack([b1, b2])).max(axis=1)
        scale = np.maximum(scale, np.finfo(float).tiny)[:, None]
        b1, b2 = b1 / scale, b2 / scale
        area2 = b1[:, 0] * b2[:, 1] - b1[:, 1] * b2[:, 0]
        bad = np.nonzero(~(area2 > 0.0))[0]
        if len(bad):
            raise MeshError("cell %d is degenerate or clockwise" % bad[0])

        # shape regularity from the singular values of [b1/2 b2/2]
        g11 = np.einsum("ij,ij->i", b1, b1)
        g22 = np.einsum("ij,ij->i", b2, b2)
        g12 = np.einsum("ij,ij->i", b1, b2)
        tr = g11 + g22
        det = g11 * g22 - g12 * g12
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        ratio = np.sqrt((tr + disc) / np.maximum(tr - disc, 1e-300))
        bad = np.nonzero(~(ratio <= SHAPE_REGULARITY_LIMIT))[0]
        if len(bad):
            raise MeshError(
                "cell %d violates shape regularity (%.2f)" % (bad[0], ratio[bad[0]])
            )

        euler = self.num_vertices - self.num_edges + self.num_cells
        if euler != 1:
            raise MeshError("Euler characteristic %d != 1" % euler)

        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.cells.ravel()] = True
        if not used.all():
            raise MeshError("vertex %d is unused" % int(np.nonzero(~used)[0][0]))

    # -- text roundtrip --------------------------------------------------------

    def export_text(self, path):
        """Write the mesh and its boundary partition in plain text."""
        b = self.boundary_edges
        with open(path, "w") as fh:
            fh.write("%d %d %d\n" % (self.num_vertices, self.num_cells, self.num_edges))
            np.savetxt(fh, self.vertices, fmt="%.17g")
            np.savetxt(fh, self.cells, fmt="%d")
            np.savetxt(fh, np.column_stack([self.edges[b], self.edge_label[b]]), fmt="%s")


def import_text(path):
    """Read a mesh written by :meth:`Mesh.export_text`.

    Raises MeshError when the file does not follow that format: a bad
    header, a missing or malformed vertex, cell or boundary line, or a
    mesh that :class:`Mesh` rejects, boundary lines that name no boundary
    edge included.
    """
    with open(path) as fh:
        lines = [(no, line.split()) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise MeshError("empty mesh file")

    def row(i, kinds, what):
        if i >= len(lines):
            raise MeshError("mesh file ends before %s" % what)
        no, fields = lines[i]
        if len(fields) != len(kinds):
            raise MeshError(
                "line %d: %s needs %d fields, got %d" % (no, what, len(kinds), len(fields))
            )
        try:
            return [kind(f) for kind, f in zip(kinds, fields)]
        except ValueError:
            raise MeshError("line %d: malformed %s %r" % (no, what, " ".join(fields))) from None

    nv, nk, ne = row(0, (int, int, int), "header")
    if min(nv, nk, ne) < 0:
        raise MeshError("header counts must be nonnegative")
    vertices = np.array([row(1 + i, (float, float), "vertex %d" % i) for i in range(nv)])
    cells = [row(1 + nv + k, (int,) * 4, "cell %d" % k) for k in range(nk)]
    labels = {}
    for i in range(1 + nv + nk, len(lines)):
        a, b, lab = row(i, (int, int, str), "boundary line")
        if labels.setdefault(frozenset((a, b)), lab) != lab:
            raise MeshError("line %d: boundary edge %s labeled twice" % (lines[i][0], (a, b)))
    mesh = Mesh(vertices.reshape(nv, 2), np.reshape(cells, (nk, 4)), boundary_labels=labels)
    if mesh.num_edges != ne:
        raise MeshError("edge count %d does not match header %d" % (mesh.num_edges, ne))
    return mesh


# -- generators ---------------------------------------------------------------


def _cells_per_side(level):
    """2**level for a refinement level; MeshError unless it is a nonnegative integer."""
    try:
        if operator.index(level) >= 0:
            return 2 ** operator.index(level)
    except TypeError:
        pass
    raise MeshError("refinement level must be a nonnegative integer, got %r" % (level,))


def make_parallelogram_domain(corners, level):
    """Uniform 2^level x 2^level mesh of the parallelogram with the given
    counterclockwise corners.

    The third corner must close the parallelogram (c0 - c1 + c2 - c3 = 0).
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (4, 2):
        raise MeshError("corners must be a (4, 2) array")
    if not np.all(np.isfinite(corners)):
        raise MeshError("corners must be finite")
    c = _relative_to_largest(corners)
    if np.linalg.norm(c[0] - c[1] + c[2] - c[3]) > 1e-12:
        raise MeshError("corners do not form a parallelogram")
    a, b = c[1] - c[0], c[3] - c[0]
    if a[0] * b[1] - a[1] * b[0] <= 0.0:
        raise MeshError("corners are clockwise or degenerate")
    u = corners[1] - corners[0]
    w = corners[3] - corners[0]

    n = _cells_per_side(level)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    s = (ii / n).ravel()
    t = (jj / n).ravel()
    # index of lattice node (i, j) is i * (n + 1) + j
    vertices = corners[0][None, :] + np.outer(s, u) + np.outer(t, w)

    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return Mesh(vertices, v00[:, None] + [0, n + 1, n + 2, 1])


def make_lshape(level):
    """Uniform mesh of the L-shaped domain (-1,1)^2 minus [-1,0]^2.

    The two edges of the reentrant corner, (-1,0] x {0} and {0} x (-1,0],
    are labeled Dirichlet; the outer boundary is Neumann.  Level 0 gives
    three unit cells.
    """
    n = _cells_per_side(level)
    # lower left lattice corners of the lower right, upper right and upper
    # left blocks of n x n cells, swept i-major within each block
    r = np.arange(n)
    i = np.concatenate([np.repeat(i0 + r, n) for i0 in (0, 0, -n)])[:, None] + [0, 1, 1, 0]
    j = np.concatenate([np.tile(j0 + r, n) for j0 in (-n, 0, 0)])[:, None] + [0, 0, 1, 1]
    # the two legs of the reentrant corner, nodes (-n..0, 0) and (0, -n..0)
    leg, zero = np.arange(-n, 1), np.zeros(n + 1, dtype=int)
    i = np.concatenate([i.ravel(), leg, zero])
    j = np.concatenate([j.ravel(), zero, leg])

    # nodes are numbered as the cells first visit them
    first, ids = cell_groups((i + n) * (2 * n + 1) + (j + n))
    cells = ids[: 12 * n * n].reshape(-1, 4)
    labels = {
        frozenset(pair): DIRICHLET
        for nodes in ids[12 * n * n :].reshape(2, n + 1).tolist()
        for pair in zip(nodes[:-1], nodes[1:])
    }
    vertices = np.stack([i[first] / n, j[first] / n], axis=1)
    return Mesh(vertices, cells, boundary_labels=labels, default_label=NEUMANN)


def refine_uniform(mesh):
    """Split every cell into four congruent children through edge midpoints.

    Vertex identity is inherited structurally (old vertices keep their
    indices, midpoints are keyed by parent edge, centers by parent cell), so
    no floating point snapping is involved and boundary labels carry over to
    the child edges exactly.
    """
    nv, ne = mesh.num_vertices, mesh.num_edges
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    centers = 0.5 * (mesh.vertices[mesh.cells[:, 0]] + mesh.vertices[mesh.cells[:, 2]])
    vertices = np.vstack([mesh.vertices, mid, centers])

    a, b, c, d = mesh.cells.T
    m0, m1, m2, m3 = (nv + mesh.cell_edges).T
    z = nv + ne + np.arange(mesh.num_cells)
    children = [[a, m0, z, m3], [m0, b, m1, z], [z, m1, c, m2], [m3, z, m2, d]]
    cells = np.array(children).transpose(2, 0, 1).reshape(-1, 4)

    labels = {
        frozenset((v, nv + e)): mesh.edge_label[e]
        for e in mesh.boundary_edges.tolist()
        for v in mesh.edges[e].tolist()
    }
    return Mesh(vertices, cells, boundary_labels=labels)

