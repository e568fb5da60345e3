"""Global degree-of-freedom management for the tensor space.

Every mesh edge carries four global dofs (constant and linear normal-normal
moments, constant and linear effective-shear moments, all in the global
edge frame of :mod:`ddivfem.piola`), and every cell carries four corner-jump
dofs.  At an interior vertex the jumps of the surrounding cells must sum to
zero; that constraint is eliminated by dropping the jump dof of the
lowest-numbered cell of the patch and expanding it as minus the sum of the
others.  The resulting count is

    ndofs = 4 #edges + 4 #cells - #interior vertices.

The whole local-to-global map is one sparse matrix ``P`` of shape
(20 #cells, ndofs): row ``20 k + slot`` expands local slot ``slot`` of cell
``k``, so ``(P @ x).reshape(-1, 20)`` holds the local dof vectors of all
cells and ``P.T @ D @ P`` assembles a block diagonal ``D`` of local matrices.
"""

import numpy as np
import scipy.sparse as sp

from .piola import BasisCache, batch_geometry, dof_matrices

# slot layout of the 20 local dofs of a cell
SLOT_M0 = 0
SLOT_M1 = 4
SLOT_Q0 = 8
SLOT_Q1 = 12
SLOT_JUMP = 16


class DofMap:
    """Global dof numbering and the local-to-global operator.

    Attributes
    ----------
    ndofs : int
    P : csr_matrix, (20 ncells, ndofs)
        Row ``20 k + slot`` expands local slot ``slot`` of cell ``k``: a
        single 1 for an edge moment or a kept jump, and -1 at every patch
        partner for an eliminated jump.
    jump_id : (ncells, 4) int array
        Global id of the jump dof at each (cell, corner), or -1 when
        eliminated; ``jump_id[(k, c)]`` reads one entry.
    eliminated : dict
        (cell, corner) -> list of surviving (cell, corner) patch partners.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nk = mesh.num_cells
        base = 4 * mesh.num_edges

        # corner 4 k + c of cell k sits at vertex corners[4 k + c]; each
        # interior vertex drops the jump of its first corner in cell order
        corners = mesh.cells.ravel()
        first = np.zeros(mesh.num_vertices, dtype=int)
        used, at = np.unique(corners, return_index=True)
        first[used] = at
        kept = np.ones(4 * nk, dtype=bool)
        kept[first[mesh.interior_vertices]] = False
        jump = np.where(kept, base + np.cumsum(kept) - 1, -1)
        self.jump_id = jump.reshape(nk, 4)
        self.ndofs = base + int(kept.sum())
        self.eliminated = {
            mesh.vertex_cells[v][0]: mesh.vertex_cells[v][1:] for v in mesh.interior_vertices
        }

        # row 20 k + 4 r + j expands moment r of local edge j, row 20 k + 16 + c
        # the jump at corner c; a dropped jump is minus the sum of the kept
        # jumps at its vertex
        slot = 20 * np.arange(nk)[:, None] + np.arange(4)
        moment = np.arange(4)[:, None]
        jump_rows = (slot + SLOT_JUMP).ravel()
        partner = kept & np.isin(corners, mesh.interior_vertices)
        edge_rows = (slot[:, None] + 4 * moment).ravel()
        edge_cols = (4 * mesh.cell_edges[:, None] + moment).ravel()
        rows = np.concatenate([edge_rows, jump_rows[kept], jump_rows[first[corners[partner]]]])
        cols = np.concatenate([edge_cols, jump[kept], jump[partner]])
        vals = np.ones(len(rows))
        vals[len(rows) - partner.sum() :] = -1.0
        self.P = sp.csr_matrix((vals, (rows, cols)), shape=(20 * nk, self.ndofs))


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
    _, group, Tinv = cache.groups(mesh)
    local = (dofmap.P @ mcoef).reshape(-1, 20)
    return np.einsum("kij,kj->ki", Tinv[group], local)


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
