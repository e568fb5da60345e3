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
(20 #cells, ndofs), held as a :class:`Csr`: row ``20 k + slot`` expands
local slot ``slot`` of cell ``k``, so ``(P @ x).reshape(-1, 20)`` holds the
local dof vectors of all cells and P^T D P assembles a block diagonal ``D``
of local matrices.  The continuity rows ``C``, with ``C P = 0``, state the
conformity of the space.
"""

from functools import cached_property

import numpy as np

from .piola import BasisCache, batch_geometry, cell_groups, dof_matrices

# slot layout of the 20 local dofs of a cell
SLOT_M0 = 0
SLOT_M1 = 4
SLOT_Q0 = 8
SLOT_Q1 = 12
SLOT_JUMP = 16


class Csr:
    """A sparse matrix as compressed rows: ``indptr``, ``indices``, ``data`` and ``shape``.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``.  A product with a vector is a
    gather and one bincount, which sums the entries of each row (of each
    column for the transpose) in their stored order, from 0.0.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = tuple(shape)

    @classmethod
    def from_entries(cls, rows, cols, vals, shape):
        """The matrix with ``vals`` at ``(rows, cols)``, no place twice, each row by column."""
        # no place is repeated, so one key orders the entries
        order = np.argsort(rows.astype(np.int64) * shape[1] + cols)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        return cls(indptr, cols[order], vals[order], shape)

    @cached_property
    def rows(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x):
        return _sums(self.rows, self.data * x[self.indices], self.shape[0])

    def rmatvec(self, y):
        """The transposed product A^T y."""
        return _sums(self.indices, self.data * y[self.rows], self.shape[1])


def _sums(at, weights, n):
    """``np.bincount(at, weights, n)``, float also when there are no weights."""
    return np.bincount(at, weights, n).astype(float, copy=False)


class DofMap:
    """Global dof numbering and the local-to-global operator.

    Attributes
    ----------
    ndofs : int
    P : Csr, (20 ncells, ndofs)
        Row ``20 k + slot`` expands local slot ``slot`` of cell ``k``: a
        single 1 for an edge moment or a kept jump, and -1 at every patch
        partner for an eliminated jump.
    jump_id : (ncells, 4) int array
        Global id of the jump dof at each (cell, corner), or -1 when
        eliminated; ``jump_id[(k, c)]`` reads one entry.
    Q, C : Csr, (ndofs, 20 ncells) and (20 ncells - ndofs, 20 ncells)
        Built on first use.  Q selects the first local copy of every global
        dof, so Q P = I.  C holds the nonzero rows of I - P Q in slot order,
        entries +-1 by column: four per interior edge, a second copy of an
        edge dof against the first, and one per interior vertex, its
        eliminated jump plus the kept jumps there.
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
        self.P = Csr.from_entries(rows, cols, vals, (20 * nk, self.ndofs))

    @cached_property
    def Q(self):
        P = self.P
        rows = np.flatnonzero(np.diff(P.indptr) == 1)
        rows = rows[P.data[P.indptr[rows]] == 1.0]
        dofs, at = np.unique(P.indices[P.indptr[rows]], return_index=True)
        if len(dofs) != self.ndofs:
            raise ValueError("%d of %d global dofs have a local copy" % (len(dofs), self.ndofs))
        return Csr(np.arange(self.ndofs + 1), rows[at], np.ones(self.ndofs), P.shape[::-1])

    @cached_property
    def C(self):
        # (P Q)[r] has -P[r, d] at the first copy Q.indices[d] of each dof d of
        # row r; it cancels row r of I only where r is itself a first copy
        P, first = self.P, self.Q.indices
        other = np.ones(P.shape[0], dtype=bool)
        other[first] = False
        at = other[P.rows]
        diag = np.flatnonzero(other)
        rows = np.concatenate([diag, P.rows[at]])
        cols = np.concatenate([diag, first[P.indices[at]]])
        vals = np.concatenate([np.ones(len(diag)), -P.data[at]])
        return Csr.from_entries(np.cumsum(other)[rows] - 1, cols, vals, (len(diag), P.shape[0]))


def build_dof_map(mesh):
    """DofMap of a mesh, with the dimension formula double-checked."""
    dm = DofMap(mesh)
    _check_fits(mesh, dm)
    return dm


# -- reconstruction ------------------------------------------------------------


def cell_coefficients(mesh, dofmap, cache, mcoef):
    """Reference expansion coefficients of every cell, shape (nk, 20).

    ``mcoef`` is a global coefficient vector of length ``dofmap.ndofs``, and
    ``dofmap`` must number the dofs of ``mesh``.
    """
    _check_fits(mesh, dofmap)
    mcoef = np.asarray(mcoef, dtype=float)
    if mcoef.shape != (dofmap.ndofs,):
        raise ValueError(
            "expected a global coefficient vector of length ndofs = %d, got shape %s"
            % (dofmap.ndofs, mcoef.shape)
        )
    _, group, Tinv = cache.groups(mesh)
    return _expand(group, Tinv, (dofmap.P @ mcoef).reshape(-1, 20))


def check_conformity(mesh, dofmap, coeffs, cache=None):
    """Verify interelement continuity of a tensor field from its physical dofs.

    ``coeffs`` holds raw per-cell reference expansion coefficients, shape
    (ncells, 20), as :func:`cell_coefficients` returns; the check quantifies
    how nonconforming such a piecewise field is.  For every interior edge
    the normal-normal and effective-shear moments in the global edge frame
    must agree from both sides; at every interior vertex the corner jumps of
    the surrounding cells must sum to zero: the rows ``dofmap.C``.  The dofs
    of every cell are ``T_k @ coeffs_k``, where ``T_k`` reads the exact edge
    moments and corner values of the cache's
    :class:`ddivfem.piola.EdgeTabulation`; no edge quadrature is involved.
    Cells with equal :meth:`ddivfem.piola.CellGeometry.keys` rows have
    bitwise equal dof matrices, so ``T_k`` is built once per group of such
    cells by :func:`ddivfem.piola.dof_matrices`; nothing is inverted, and
    the cache's stored inverses are not consulted.

    Returns a dict with the three maximal violations and their locations:
    the lowest edge or vertex index attaining each maximum, or -1 when it is
    not positive.
    """
    if cache is None:
        cache = BasisCache()
    _check_fits(mesh, dofmap)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mesh.num_cells, 20):
        raise ValueError(
            "expected raw coefficients of shape (ncells, 20) = (%d, 20), got shape %s"
            % (mesh.num_cells, coeffs.shape)
        )
    first, group = cell_groups(batch_geometry(mesh).keys())
    return _conformity(mesh, dofmap, first, group, coeffs, cache.edge_tabulation())


def _check_fits(mesh, dofmap):
    """Raise ``ValueError`` unless the dof map has the counts 4E + 4K - N0 and K of the mesh."""
    ndofs = 4 * mesh.num_edges + 4 * mesh.num_cells - len(mesh.interior_vertices)
    if dofmap.P.shape != (20 * mesh.num_cells, ndofs):
        raise ValueError(
            "the dof map expands %d dofs into %d cells, but the mesh has %d dofs and %d cells"
            % (dofmap.ndofs, dofmap.P.shape[0] // 20, ndofs, mesh.num_cells)
        )


def _expand(group, Tinv, local):
    """Coefficients (nk, 20) of local dof vectors (nk, 20), cell k through ``Tinv[group[k]]``."""
    return np.einsum("kij,kj->ki", Tinv[group], local)


def _conformity(mesh, dofmap, first, group, coeffs, tab):
    """Conformity report of raw coefficients, for cells grouped as ``(first, group)``."""
    # dof_matrices computes each row of a batch on its own, so the matrix of
    # a group's first cell is bitwise the matrix of every cell in the group
    T = dof_matrices(batch_geometry(mesh, first), tab)
    phys = np.einsum("kmi,ki->km", T[group], coeffs)

    # a continuity row is named by its first slot: the first copy of edge dof
    # 4 e + r (moments r < 2, global-frame shears r >= 2) or an eliminated jump
    gap = np.abs(dofmap.C @ phys.ravel())
    k, slot = np.divmod(dofmap.C.indices[dofmap.C.indptr[:-1]], 20)
    jump = slot >= SLOT_JUMP
    edge, r = np.divmod(dofmap.P.indices[dofmap.P.indptr[20 * k + slot][~jump]], 4)
    max_m, where_m = _worst(gap[~jump][r < 2], edge[r < 2])
    max_q, where_q = _worst(gap[~jump][r >= 2], edge[r >= 2])
    max_j, where_j = _worst(gap[jump], mesh.cells[k[jump], slot[jump] - SLOT_JUMP])

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
    """Maximum of ``values`` and the lowest id attaining it; (0.0, -1) if not positive.

    A NaN counts as a violation and is reported at the lowest id that has one.
    """
    if len(values) == 0:
        return 0.0, -1
    order = np.argsort(ids, kind="stable")
    i = order[np.argmax(values[order])]
    top = float(values[i])
    if top <= 0.0:
        return 0.0, -1
    return top, int(ids[i])
