"""Conforming parallelogram meshes with labeled boundary.

Vertices are float coordinates, cells are counterclockwise vertex quadruples,
and every cell must be a parallelogram.  Edges are derived from the cells and
oriented from their lower-numbered to their higher-numbered vertex; that
global orientation is what the degree-of-freedom bookkeeping downstream
relies on, so it is fixed here once and for all.

Mesh generation works on integer lattices and only converts to floating
point at the end, which keeps vertex identification exact across block
seams and refinement levels.
"""

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


class Mesh:
    """A conforming mesh of parallelograms.

    Parameters
    ----------
    vertices : (nv, 2) array
    cells : (nk, 4) int array
        Counterclockwise corner quadruples.
    boundary_labels : dict, optional
        Maps frozenset({a, b}) vertex pairs of boundary edges to 'D' or 'N'.
        Missing entries default to 'D'.

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

    def __init__(self, vertices, cells, boundary_labels=None, default_label=DIRICHLET,
                 validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 4:
            raise MeshError("cells must be an (nk, 4) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex coordinates must be finite")
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= len(self.vertices)):
            raise MeshError("cell corner indices must lie in [0, %d)" % len(self.vertices))
        self._build_topology()
        self._apply_labels(boundary_labels, default_label)
        if validate:
            self.validate()

    # -- construction ------------------------------------------------------

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
        self._edge_index = edge_index

        self.boundary_edges = np.nonzero(self.edge_cells[:, 1] == -1)[0]
        on_boundary = np.zeros(len(self.vertices), dtype=bool)
        for e in self.boundary_edges:
            on_boundary[self.edges[e]] = True
        self.boundary_vertices = np.nonzero(on_boundary)[0]
        self.interior_vertices = np.nonzero(~on_boundary)[0]

        # vertex -> (cell, local corner) incidence, in cell order
        patches = [[] for _ in range(len(self.vertices))]
        for k in range(nk):
            for c in range(4):
                patches[self.cells[k, c]].append((k, c))
        self.vertex_cells = patches

        d1 = self.vertices[self.cells[:, 2]] - self.vertices[self.cells[:, 0]]
        d2 = self.vertices[self.cells[:, 3]] - self.vertices[self.cells[:, 1]]
        self.h_cell = np.maximum(
            np.linalg.norm(d1, axis=1), np.linalg.norm(d2, axis=1)
        )

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

    def edge_vector(self, e):
        a, b = self.edges[e]
        return self.vertices[b] - self.vertices[a]

    def edge_length(self, e):
        return float(np.linalg.norm(self.edge_vector(e)))

    def dirichlet_edges(self):
        return np.nonzero(self.edge_label == DIRICHLET)[0]

    def neumann_edges(self):
        return np.nonzero(self.edge_label == NEUMANN)[0]

    def find_edge(self, a, b):
        return self._edge_index.get((min(a, b), max(a, b)), -1)

    # -- invariants ----------------------------------------------------------

    def validate(self):
        """Raise MeshError on any violated structural invariant."""
        v = self.vertices[self.cells]
        closure = v[:, 0] - v[:, 1] + v[:, 2] - v[:, 3]
        defect = np.linalg.norm(closure, axis=1)
        bad = np.nonzero(defect > 1e-12 * np.maximum(self.h_cell, 1.0))[0]
        if len(bad):
            raise MeshError("cell %d is not a parallelogram" % bad[0])

        b1 = v[:, 1] - v[:, 0]
        b2 = v[:, 3] - v[:, 0]
        area2 = b1[:, 0] * b2[:, 1] - b1[:, 1] * b2[:, 0]
        bad = np.nonzero(area2 <= 0.0)[0]
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
        if ratio.max() > SHAPE_REGULARITY_LIMIT:
            raise MeshError(
                "cell %d violates shape regularity (%.2f)"
                % (int(np.argmax(ratio)), float(ratio.max()))
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
        lines = ["%d %d %d" % (self.num_vertices, self.num_cells, self.num_edges)]
        for p in self.vertices:
            lines.append("%.17g %.17g" % (p[0], p[1]))
        for q in self.cells:
            lines.append("%d %d %d %d" % tuple(q))
        for e in self.boundary_edges:
            a, b = self.edges[e]
            lines.append("%d %d %s" % (a, b, self.edge_label[e]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def import_text(path):
    """Read a mesh written by :meth:`Mesh.export_text`.

    Raises MeshError when the file does not follow that format: a bad
    header, a missing or malformed vertex, cell or boundary line, or a
    boundary line that names no boundary edge of the mesh.
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
    cells = np.array([row(1 + nv + k, (int,) * 4, "cell %d" % k) for k in range(nk)])
    pairs = [row(i, (int, int, str), "boundary line") for i in range(1 + nv + nk, len(lines))]
    labels = {frozenset((a, b)): lab for a, b, lab in pairs}
    mesh = Mesh(vertices.reshape(nv, 2), cells.reshape(nk, 4), boundary_labels=labels)
    if mesh.num_edges != ne:
        raise MeshError("edge count %d does not match header %d" % (mesh.num_edges, ne))
    for a, b, _ in pairs:
        e = mesh.find_edge(a, b)
        if e < 0 or mesh.edge_cells[e, 1] != -1:
            raise MeshError("boundary line %d %d names no boundary edge" % (a, b))
    return mesh


# -- generators ---------------------------------------------------------------


def make_parallelogram_domain(corners, level):
    """Uniform 2^level x 2^level mesh of the parallelogram with the given
    counterclockwise corners.

    The third corner must close the parallelogram (c0 - c1 + c2 - c3 = 0).
    """
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (4, 2):
        raise MeshError("corners must be a (4, 2) array")
    closure = corners[0] - corners[1] + corners[2] - corners[3]
    scale = max(np.abs(corners).max(), 1.0)
    if np.linalg.norm(closure) > 1e-12 * scale:
        raise MeshError("corners do not form a parallelogram")
    u = corners[1] - corners[0]
    w = corners[3] - corners[0]
    if u[0] * w[1] - u[1] * w[0] <= 0.0:
        raise MeshError("corners are clockwise or degenerate")

    n = 2**int(level)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    s = (ii / n).ravel()
    t = (jj / n).ravel()
    # index of lattice node (i, j) is i * (n + 1) + j
    vertices = corners[0][None, :] + np.outer(s, u) + np.outer(t, w)

    cells = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = (i + 1) * (n + 1) + j
            cells.append([v00, v10, v10 + 1, v00 + 1])
    return Mesh(vertices, np.array(cells))


def make_lshape(level):
    """Uniform mesh of the L-shaped domain (-1,1)^2 minus [-1,0]^2.

    The two edges of the reentrant corner, (-1,0] x {0} and {0} x (-1,0],
    are labeled Dirichlet; the outer boundary is Neumann.  Level 0 gives
    three unit cells.
    """
    n = 2**int(level)
    index = {}
    coords = []

    def node(i, j):
        key = (i, j)
        if key not in index:
            index[key] = len(coords)
            coords.append((i / n, j / n))
        return index[key]

    blocks = [
        (0, n, -n, 0),  # lower right block
        (0, n, 0, n),  # upper right block
        (-n, 0, 0, n),  # upper left block
    ]
    cells = []
    for i0, i1, j0, j1 in blocks:
        for i in range(i0, i1):
            for j in range(j0, j1):
                cells.append(
                    [node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1)]
                )

    labels = {}
    for i in range(-n, 0):
        labels[frozenset((node(i, 0), node(i + 1, 0)))] = DIRICHLET
    for j in range(-n, 0):
        labels[frozenset((node(0, j), node(0, j + 1)))] = DIRICHLET
    mesh = Mesh(np.array(coords), np.array(cells), boundary_labels=labels,
                default_label=NEUMANN)
    return mesh


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
    return Mesh(vertices, np.array(cells), boundary_labels=labels)


def canonical_form(mesh, digits=12):
    """Coordinate-based canonical representation for mesh comparisons.

    Returns sorted tuples of cell corner coordinates and labeled boundary
    edges, independent of vertex and cell numbering.
    """

    def pt(i):
        x, y = mesh.vertices[i]
        return (round(float(x), digits), round(float(y), digits))

    cells = sorted(
        tuple(sorted(pt(v) for v in quad)) for quad in mesh.cells
    )
    bdry = sorted(
        (tuple(sorted((pt(mesh.edges[e][0]), pt(mesh.edges[e][1])))), mesh.edge_label[e])
        for e in mesh.boundary_edges
    )
    return cells, bdry
