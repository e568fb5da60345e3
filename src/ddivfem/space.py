"""Global degree-of-freedom management for the tensor space.

Every mesh edge carries four global dofs (constant and linear normal-normal
moments, constant and linear effective-shear moments, all in the global
edge frame of :mod:`ddivfem.piola`), and every cell carries four corner-jump
dofs.  At an interior vertex the jumps of the surrounding cells must sum to
zero; that constraint is eliminated by dropping the jump dof of the
lowest-numbered cell of the patch and expanding it as minus the sum of the
others.  The resulting count is

    ndofs = 4 #edges + 4 #cells - #interior vertices.
"""

import numpy as np

from .piola import BasisCache, batch_geometry, cell_geometry, dof_matrices

# slot layout of the 20 local dofs of a cell
SLOT_M0 = 0
SLOT_M1 = 4
SLOT_Q0 = 8
SLOT_Q1 = 12
SLOT_JUMP = 16


class DofMap:
    """Global dof numbering and the per-cell local-to-global expansion.

    Attributes
    ----------
    ndofs : int
    cell_entries : list
        Per cell a list of 20 lists of (global id, coefficient) pairs; the
        eliminated jump slots expand into several pairs with coefficient -1.
    jump_id : dict
        (cell, corner) -> global id, or -1 when eliminated.
    eliminated : dict
        (cell, corner) -> list of surviving (cell, corner) patch partners.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        ne, nk = mesh.num_edges, mesh.num_cells
        base = 4 * ne

        eliminated = {}
        for v in mesh.interior_vertices:
            patch = mesh.vertex_cells[v]
            designated = patch[0]
            eliminated[designated] = [kc for kc in patch if kc != designated]
        self.eliminated = eliminated

        jump_id = {}
        next_id = base
        for k in range(nk):
            for c in range(4):
                if (k, c) in eliminated:
                    jump_id[(k, c)] = -1
                else:
                    jump_id[(k, c)] = next_id
                    next_id += 1
        self.jump_id = jump_id
        self.ndofs = next_id

        entries = []
        for k in range(nk):
            cell = []
            for j in range(4):
                e = int(mesh.cell_edges[k, j])
                cell.append([(4 * e + 0, 1.0)])
            for j in range(4):
                e = int(mesh.cell_edges[k, j])
                cell.append([(4 * e + 1, 1.0)])
            for j in range(4):
                e = int(mesh.cell_edges[k, j])
                cell.append([(4 * e + 2, 1.0)])
            for j in range(4):
                e = int(mesh.cell_edges[k, j])
                cell.append([(4 * e + 3, 1.0)])
            for c in range(4):
                gid = jump_id[(k, c)]
                if gid >= 0:
                    cell.append([(gid, 1.0)])
                else:
                    cell.append(
                        [(jump_id[kc], -1.0) for kc in eliminated[(k, c)]]
                    )
            entries.append(cell)
        self.cell_entries = entries

    # -- edge dof ids --------------------------------------------------------

    def edge_dofs(self, e):
        """(m0, m1, q0, q1) global ids of edge e."""
        return 4 * e, 4 * e + 1, 4 * e + 2, 4 * e + 3

    # -- local/global transfer -------------------------------------------------

    def gather(self, x, k):
        """Local 20-vector of cell k from a global coefficient vector."""
        out = np.zeros(20)
        for slot, pairs in enumerate(self.cell_entries[k]):
            out[slot] = sum(coef * x[g] for g, coef in pairs)
        return out

    def scatter_add(self, y, k, local):
        """Accumulate a local 20-vector into a global vector (transpose of gather)."""
        for slot, pairs in enumerate(self.cell_entries[k]):
            for g, coef in pairs:
                y[g] += coef * local[slot]

    def cell_incidence(self, k):
        """(gids, P) with P of shape (20, len(gids)): local = P @ x[gids]."""
        gids = []
        seen = {}
        rows = []
        for slot, pairs in enumerate(self.cell_entries[k]):
            for g, coef in pairs:
                if g not in seen:
                    seen[g] = len(gids)
                    gids.append(g)
                rows.append((slot, seen[g], coef))
        P = np.zeros((20, len(gids)))
        for slot, col, coef in rows:
            P[slot, col] = coef
        return np.array(gids, dtype=int), P


def build_dof_map(mesh):
    """DofMap of a mesh, with the dimension formula double-checked."""
    dm = DofMap(mesh)
    expected = 4 * mesh.num_edges + 4 * mesh.num_cells - len(mesh.interior_vertices)
    if dm.ndofs != expected:
        raise AssertionError(
            "dof count %d does not match 4E + 4K - N0 = %d" % (dm.ndofs, expected)
        )
    return dm


# -- reconstruction ------------------------------------------------------------


def cell_coefficients(mesh, dofmap, cache, mcoef):
    """Reference expansion coefficients of every cell, shape (nk, 20)."""
    nk = mesh.num_cells
    coeffs = np.zeros((nk, 20))
    for k in range(nk):
        emap, frame = cell_geometry(mesh, k)
        lb = cache.get(emap, frame)
        coeffs[k] = lb.Tinv @ dofmap.gather(mcoef, k)
    return coeffs


def check_conformity(mesh, dofmap, mcoef, cache=None, nq=4):
    """Verify interelement continuity of a tensor field from its physical dofs.

    For every interior edge the normal-normal and effective-shear moments in
    the global edge frame must agree from both sides; at every interior
    vertex the corner jumps of the surrounding cells must sum to zero.  The
    dofs of every cell are ``T_k @ coeffs_k``, with the local dof matrices
    ``T_k`` of all cells built for an ``nq``-point edge rule by
    :func:`ddivfem.piola.dof_matrices`.

    ``mcoef`` is either an (ncells, 20) array of raw per-cell reference
    expansion coefficients or a global coefficient vector.  Raw coefficients
    get a true interface check: it quantifies how nonconforming an arbitrary
    piecewise field is.  A global vector is first expanded per cell through
    the cached ``Tinv``, so the check certifies the round trip
    ``T_k Tinv_k`` and the sharing of edge dofs and eliminated jumps in the
    dof map.

    Returns a dict with the three maximal violations and their locations:
    the lowest edge or vertex index attaining each maximum, or -1 when it is
    not positive.
    """
    if cache is None:
        cache = BasisCache()
    mcoef = np.asarray(mcoef, dtype=float)
    if mcoef.ndim == 2:
        coeffs = mcoef
    else:
        coeffs = cell_coefficients(mesh, dofmap, cache, mcoef)
    T = dof_matrices(batch_geometry(mesh), cache.edge_tabulation(nq))
    phys = np.einsum("kmi,ki->km", T, coeffs)

    # global-frame edge dofs; the outward shear values are sigma * global
    # with sigma differing between the two sides, so the global values of
    # all four moments must agree
    edges = np.nonzero(mesh.edge_cells[:, 1] >= 0)[0]
    slots = np.array([SLOT_M0, SLOT_M1, SLOT_Q0, SLOT_Q1])
    sides = []
    for k in mesh.edge_cells[edges].T:
        j = np.argmax(mesh.cell_edges[k] == edges[:, None], axis=1)
        sides.append(phys[k[:, None], slots + j[:, None]])
    diff = np.abs(sides[0] - sides[1])
    max_m, where_m = _worst(diff[:, :2].max(axis=1), edges)
    max_q, where_q = _worst(diff[:, 2:].max(axis=1), edges)

    jump_sums = np.bincount(
        mesh.cells.ravel(), weights=phys[:, SLOT_JUMP:].ravel(), minlength=mesh.num_vertices
    )
    vertices = mesh.interior_vertices
    max_j, where_j = _worst(np.abs(jump_sums[vertices]), vertices)

    return {
        "max_moment_mismatch": max_m,
        "max_shear_mismatch": max_q,
        "max_jump_sum": max_j,
        "worst_edge_m": where_m,
        "worst_edge_q": where_q,
        "worst_vertex": where_j,
        "max_violation": float(np.max([max_m, max_q, max_j])),
    }


def _worst(values, ids):
    """Maximum of ``values`` and the first id attaining it; (0.0, -1) if not positive.

    A NaN counts as a violation and is reported where it first occurs.
    """
    if len(values) == 0:
        return 0.0, -1
    i = int(np.argmax(values))
    top = float(values[i])
    if top <= 0.0:
        return 0.0, -1
    return top, int(ids[i])
