"""Direct linear solves with certified residuals.

A plate system

    K = [[A, -B^T, L^T], [-B, 0, 0], [L, 0, 0]]

is symmetric indefinite, and factoring it whole is expensive.  It is solved
by Arnold-Brezzi hybridization instead.  The 20 tensor dofs of every cell
are broken apart, so that the tensor field lives in the local dof space of
all cells, and continuity is imposed by multipliers: a second local copy of
an edge moment must equal the first, and an eliminated corner jump must
balance the kept jumps at its vertex: the rows ``C`` of the dof map.  The
Neumann rows ``L`` are read on the first local copy of each global dof, the
one that ``Q`` selects.  Together they are the rows of one multiplier
matrix Lambda = [C; L Q], on the dof map's 20 tensor slots per cell.  Each
cell carries the 23 x 23 local saddle block [[A_k, -B_k^T], [-B_k, 0]],
inverted once per group of equal cells.  The multiplier system

    S = Lambda blockdiag(W_k) Lambda^T,

with W_k the tensor block of the local inverse G_k, is symmetric positive
definite exactly when K is regular.  It is factored by nested dissection
(A. George, SINUM 10 (1973) 345-363) with dense fronts (I. Duff, J. Reid,
ACM TOMS 9 (1983) 302-325), in levels of blocks.  The cells are the blocks
of level 0.  Every row meets a cell in at most one slot: a row of C sets a
second copy of an edge dof against the first, or sums the jumps at one
vertex, one corner per cell, and a row of L Q pins the first copy of one
dof.  So cell k adds v v^T * W_k[s, s] (entrywise) to S, with s and v the
slots and values of the rows that meet it: a gather, not a product, and
diag(S) is summed once over the nonzeros of Lambda, v W_k[s, s] v each.  The
cells and blocks of a level are its units.  At every level above, two to
four units of the level below form a block, four around a vertex where they
meet; at level 1 these are mostly the 2 x 2 patches of four cells, the small
subdomains of FETI (C. Farhat, F.-X. Roux, IJNME 32 (1991) 1205-1227).  One
front rule applies at every level: the updates of the units of a block are
summed into a dense front on the rows that meet the block; the rows whose
cells all lie in the block, continuity and Neumann rows alike, are
eliminated by one scaled Cholesky factorization per group of equal blocks
and a batched inverse of the factors by halves, and the Schur complement on
the other rows is the block's update for the level above.  One cover rule
picks the blocks of every level, from the rows of its units alone, as the
level below hands them up; a row joins the units that carry it.  The rows
that join four units are taken first, in reverse row order, each taking its
four units when none is taken yet: the jump rows of interior vertices with
four cells, and around a vertex of more cells its jump row once those cells
lie in four units.  When units are left free, the rows that join three free
units, then those that join two, take them alike, also in reverse row
order, and the units that no block takes are units of the level above as
they are.  A row is inside a block when the block holds every unit that
carries it.  The levels go on while a unit has a row left, so the
elimination tree of a connected mesh closes in one root (J. W. H. Liu, SIAM
Review 34 (1992) 82-109), and that root is a front like any other, a lone
cell with rows of its own included.  The pivots of all levels, in the order
of the blocks of each level, are the pivots of S itself, and each is
divided by its entry of diag(S); a ratio below ``PIVOT_BREAKDOWN_TOL``
counts as a breakdown at any level, the root's included.  The ratio does
not move under a diagonal scaling of the dofs.
The one singular case that well-formed plate data can produce, Neumann rows
on the whole boundary with the rigid deflections left free, is rejected from
the sparsity of ``P`` and ``L`` before any factorization, and the pivot test
stays as a backstop.
The multipliers are found by forward elimination level by level up to the
root and back substitution down from it, and the tensor field and the
deflection are then recovered cell by cell as y = blockdiag(G_k) (z -
Lambda^T mu), with Lambda^T mu on the tensor slots.

The solver holds the local saddle blocks and their symmetrized inverses
once per cell group, as (ngroups, 23, 23) arrays, and the elimination of
each level once per group of equal blocks, at the size of their fronts.  A
cellwise product gathers the local blocks a fixed number of cells at a
time, fronts of equal size are factored together, and a sweep of a solve
takes one pair of products per group.  Each local block is scaled
symmetrically before it is inverted, so that cells of any size give an
accurate inverse.  The units of a level are held as ``(outer, group,
U)``, their rows, group and one update per group, k x k on the k rows of
the group's units.  A front is summed from the real entries of its units
by one bincount, and it is freed once its factors and update are formed.
The updates exist only until the level above has summed them, and the
units that no block takes keep copies of only the updates they use.

Everything is read from the cell structure of the assembled
:class:`ddivfem.system.SaddleSystem`: ``dofmap``, ``group``, ``A_loc``,
``B_loc``, ``L``, ``ndofs`` and ``nu``; K itself is never formed.
A few steps of iterative refinement follow, so that the final relative
residual is certified rather than hoped for.  Their residuals apply K cell
by cell through the local saddle blocks, and ||K||_inf is bounded from below
by the blocks as well, so the certificate is never looser than one measured
on the assembled K.
"""

from typing import NamedTuple

import numpy as np

from .mesh import cell_groups
from .space import Csr

#: pivot over its diagonal entry of S under which the pivot counts as a breakdown
PIVOT_BREAKDOWN_TOL = 1e-13

#: iterative refinement steps after the direct solve, at most
REFINE_STEPS = 3

#: cells whose local blocks are gathered at once in a cellwise product
_CHUNK = 256

#: entries of the dense fronts formed at once, each front m x m on its m rows
_FRONT = 1 << 20

#: order up to which a triangular factor is inverted whole, not by halves
_HALVES = 64


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when a factorization hits a (near-)zero pivot."""


class ResidualError(RuntimeError):
    """Raised when a solve cannot reach the requested residual."""


def residual_norm(r, x, b, anorm):
    """Relative residual ||r|| / max(||b||, ||K|| ||x||) in the inf norm.

    ``r`` is b - K x, and ``anorm`` is ||K||_inf or a lower bound on it,
    computed once per solve by the caller.
    """
    denom = max(np.linalg.norm(b, np.inf), anorm * np.linalg.norm(x, np.inf), 1e-300)
    return np.linalg.norm(r, np.inf) / denom


class HybridSolver:
    """Hybridized solve of a plate saddle matrix from its cell structure.

    ``plate`` is a :class:`ddivfem.system.SaddleSystem`, or anything with
    its attributes ``dofmap``, ``group``, ``A_loc``, ``B_loc``, ``L``,
    ``ndofs`` and ``nu``, and ``dofmap`` provides ``P``, ``Q`` and ``C``.

    Local dof vectors use 23 slots per cell: the 20 tensor slots of
    :mod:`ddivfem.space`, then the three deflection coefficients.  Cell k
    has the local saddle block ``local[group[k]]`` and its inverse
    ``inv[group[k]]``.  ``Lam`` holds the multiplier rows on the 20 tensor
    slots per cell, the columns of ``dofmap.C`` and ``dofmap.Q``,
    continuity rows before Neumann rows.  Entry l of ``levels``, a
    :class:`_Level`, eliminates the rows of ``Lam`` inside the blocks of
    level l + 1, the 2 x 2 patches first.  :func:`_cover` picks the blocks
    of each level from the rows of the units below, the cells or the units
    that :func:`_merge` hands up, and the levels go on while a unit has a
    row left; the last level is the root, the one block that holds every
    cell of a connected mesh and eliminates the rows left.  ``ratio`` holds
    the pivot of each row over its diagonal entry of S.
    """

    def __init__(self, plate):
        self.ndofs, self.nu = plate.ndofs, plate.nu
        self.P, self.L, self.group = plate.dofmap.P, plate.L, plate.group
        _check_rigid_kernel(self.P, self.L, self.ndofs)

        self.Q = plate.dofmap.Q
        # L Q moves each entry of L to the first local copy of its dof
        C, L = plate.dofmap.C, plate.L
        self.Lam = Csr(
            np.concatenate([C.indptr, C.indptr[-1] + L.indptr[1:]]),
            np.concatenate([C.indices, self.Q.indices[L.indices]]),
            np.concatenate([C.data, L.data]),
            (C.shape[0] + L.shape[0], C.shape[1]),
        )
        empty = np.flatnonzero(np.diff(self.Lam.indptr) == 0)
        if len(empty):
            raise SingularSystemError("multiplier row %d meets no cell" % empty[0])

        local = np.zeros((len(plate.A_loc), 23, 23))
        local[:, :20, :20] = plate.A_loc
        local[:, :20, 20:] = -plate.B_loc.transpose(0, 2, 1)
        local[:, 20:, :20] = -plate.B_loc
        self.local = local
        self.inv = _local_inverses(local)

        # the cells are the units of level 0, and each level eliminates the
        # rows inside its blocks against the updates of the units below
        self.ratio = np.empty(self.Lam.shape[0])
        units, diagonal = _cell_updates(self.Lam, self.group, self.inv)
        nb, self.levels = len(diagonal), []
        while np.any(units[0] < nb):
            blocks = _cover(units[0], nb)
            level, rows, ratio, units = _merge(units, diagonal, blocks, len(self.levels) + 1)
            self.levels.append(level)
            self.ratio[rows] = ratio
        self.pivot_ratio = float(self.ratio.min()) if len(self.ratio) else None

    def info(self):
        root_n = self.levels[-1].inner[0].shape[1] if self.levels else 0
        return {
            "path": "hybrid",
            "root_n": root_n,
            "pivot_ratio": self.pivot_ratio,
            "patches": len(self.levels[0].group) if self.levels else 0,
            "levels": max(len(self.levels) - 1, 0),
            "condensed_n": self.Lam.shape[0] - root_n,
        }

    def solve(self, b):
        """Solution of K x = b, with x = (m, u, lambda) as K orders it."""
        nd, nu = self.ndofs, self.nu
        nl, nb = self.L.shape[0], self.Lam.shape[0]
        z = _slots(self.Q.rmatvec(b[:nd]), b[nd : nd + nu])
        r = self.Lam @ self._cellwise(self.inv, z)[:, :20].ravel()
        r[nb - nl :] -= b[nd + nu :]
        for level in self.levels:
            _forward(level, r)
        mu = np.zeros(nb)
        for level in reversed(self.levels):
            _backward(level, r, mu)
        z[:, :20] -= self.Lam.rmatvec(mu).reshape(-1, 20)
        y = self._cellwise(self.inv, z)
        # the Neumann multipliers are those of K, since P^T (I - P Q)^T = 0
        return np.concatenate([self.Q @ y[:, :20].ravel(), y[:, 20:].ravel(), mu[nb - nl :]])

    def apply(self, x):
        """K x from the local saddle blocks, with x = (m, u, lambda) as K orders it."""
        nd, nu = self.ndofs, self.nu
        m, lam = x[:nd], x[nd + nu :]
        out = self._cellwise(self.local, _slots(self.P @ m, x[nd : nd + nu]))
        top = self.P.rmatvec(out[:, :20].ravel()) + self.L.rmatvec(lam)
        return np.concatenate([top, out[:, 20:].ravel(), self.L @ m])

    def _cellwise(self, blocks, z):
        """blocks[group[k]] @ z[k] for every cell k, z in the shape (ncells, 23).

        The blocks are gathered ``_CHUNK`` cells at a time, so neither a
        copy per cell of the whole mesh nor a Python step per group is made.
        """
        out = np.empty_like(z)
        for lo in range(0, len(z), _CHUNK):
            cells = slice(lo, lo + _CHUNK)
            out[cells] = (blocks[self.group[cells]] @ z[cells, :, None])[..., 0]
        return out

    def norm_inf(self):
        """Lower bound on ||K||_inf from the local blocks.

        The rows of -B and of L are exact, and so is every column sum of
        |B| and |L|, because within one cell no two slots share a global
        dof.  A row of A contributes only its diagonal entry, so the bound
        is ||K||_inf when the rows of -B or L dominate.
        """
        P, L, nd = self.P, self.L, self.ndofs
        absP, absL = np.abs(P.data), np.abs(L.data)
        absB = np.abs(self.local[:, 20:, :20])
        diag_A = np.diagonal(self.local[:, :20, :20], axis1=1, axis2=2)
        # the |P| row sums of each cell's slots weight the rows of |B_k|
        weight = np.bincount(P.rows, absP, P.shape[0]).reshape(-1, 20)
        norm_B = np.einsum("kar,kr->ka", absB[self.group], weight).max()
        norm_L = np.max(np.bincount(L.rows, absL, L.shape[0]), initial=0.0)
        rows_A = (
            np.bincount(P.indices, P.data * P.data * diag_A[self.group].ravel()[P.rows], nd)
            + np.bincount(P.indices, absP * absB.sum(axis=1)[self.group].ravel()[P.rows], nd)
            + np.bincount(L.indices, absL, nd)
        )
        return max(norm_B, norm_L, rows_A.max())


def _slots(tensor, deflection):
    """Local vectors (ncells, 23): the 20 tensor slots, then the three deflection coefficients."""
    return np.concatenate([tensor.reshape(-1, 20), deflection.reshape(-1, 3)], axis=1)


def _cover(outer, nb):
    """The blocks of one level, picked from the rows of its units; one rule for all levels.

    ``outer`` (n, w) holds the rows that meet each unit of the level below,
    padded with ``nb``, the row count of ``Lam``: the cells at level 0, as
    :func:`_cell_updates` hands them up, and the units that :func:`_merge`
    hands up above.  The rows of one unit are distinct, so each (row, unit)
    pair occurs once.  A row joins the units that carry it.  For k = 4,
    then 3, then 2, one greedy pass over the rows that join k units, in
    reverse row order, takes the k units of a row as a block when all of
    them are still free; the passes stop once no unit is free.  A row that
    joins four units is mostly the jump row of an interior vertex with four
    cells around it, whose cells lie in four units.  The jump row of a
    vertex of more than four cells is a candidate too, at the level where
    its cells lie in four units; only there does the rule differ from one
    that takes the rows of four cells alone.  Neumann rows, with one
    nonzero each, join one unit and are never candidates.  When no row
    joins two to four units, each unit with rows of its own is a block
    alone: a lone cell, or each part of a mesh in parts.  Returns (n_l, 4)
    blocks, the units of each block ascending and padded with -1.

    The order relies on the numbering of
    :func:`ddivfem.mesh.refine_uniform`, which numbers the four children
    of cell k as 4 k to 4 k + 3 around the centre of k, and on the jump row
    of a vertex, which sits at the slot of its lowest cell.  In reverse
    row order the centre of the highest cell comes first, and every vertex
    that straddles two parents is reached only after the higher parent's
    centre has taken its children, so the four-unit pass of every level
    takes the full lattice of 2 x 2, 4 x 4, ... blocks on every uniformly
    refined mesh; tensor grids numbered row by row are covered from their
    last corner alike.  On other numberings the four-unit pass may leave
    units that a better cover would take, and the passes of three and two
    units take them.
    """
    n = len(outer)
    # the (row, unit) pairs by row, then unit
    pairs = np.sort(outer.ravel() * n + np.repeat(np.arange(n), outer.shape[1]))
    row, unit = np.divmod(pairs[pairs < nb * n], n)
    joined = np.bincount(row, minlength=nb)
    first = np.cumsum(joined) - joined
    free, nfree, chosen = [True] * n, n, []
    for k in (4, 3, 2):
        if not nfree:
            break
        rows = np.flatnonzero(joined == k)[::-1]
        for units in unit[first[rows, None] + np.arange(k)].tolist():
            if all(map(free.__getitem__, units)):
                for u in units:
                    free[u] = False
                nfree -= k
                chosen.append(units + [-1] * (4 - k))
    if not chosen:
        # no row joins two to four units: each unit with rows of its own is a
        # front; distinct by bincount, since a plain np.unique imports numpy.ma
        lone = np.flatnonzero(np.bincount(unit[first[joined == 1]])).tolist()
        chosen = [[u, -1, -1, -1] for u in lone]
    return np.array(chosen)


def _cell_updates(Lam, group, inv):
    """The rows of ``Lam`` that meet each cell, the cell updates on them, and diag(S).

    Every row meets a cell in at most one slot, so the rows that meet cell
    k are its nonzeros, ranked by slot s, then by row, with values v.  With
    W_k the tensor block of ``inv[group[k]]``, the cell adds v v^T * W_k[s,
    s] (entrywise) to the multiplier system on these rows.  Cells of one
    group with the same slots and values form an update group, and each
    group's update is gathered once, those of all groups with equal row
    count k in one indexed product.  The diagonal of S is one sum over the
    nonzeros of ``Lam``, of v W_k[s, s] v each.  Returns ``(outer, group,
    U)`` in the form of the ``units`` of :func:`_merge`, the rows (ncells,
    w) padded with the row count of ``Lam``, the update group of each cell
    and per group its update (k, k) on its k rows, and the diagonal of S.
    Raises ``ValueError`` when a row meets a cell in two slots.
    """
    nb, nk, row = Lam.shape[0], len(group), Lam.rows
    cell, slot = np.divmod(Lam.indices, 20)
    nz = np.lexsort((row, slot, cell))
    count = np.bincount(cell, minlength=nk)
    at = cell[nz], np.arange(len(nz)) - np.repeat(np.cumsum(count) - count, count)
    w = count.max(initial=0)
    # each cell's rows, slots and values by rank, padded with nb, slot -1 and 0
    outer, slots, values = np.full((nk, w), nb), np.full((nk, w), -1), np.zeros((nk, w))
    outer[at], slots[at], values[at] = row[nz], slot[nz], Lam.data[nz]
    ranked = np.sort(outer, axis=1)
    if np.any((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < nb)):
        raise ValueError("a multiplier row meets a cell in two slots")
    # with the cell group, the slots and values key the update group
    rep, cgroup = cell_groups(np.concatenate([group[:, None], slots, values], axis=1))
    U, k = [None] * len(rep), count[rep]
    for n in np.flatnonzero(np.bincount(k)).tolist():
        of_k = np.flatnonzero(k == n)
        g, s, v = group[rep[of_k]], slots[rep[of_k], :n], values[rep[of_k], :n]
        batch = v[:, :, None] * inv[g[:, None, None], s[:, :, None], s[:, None, :]] * v[:, None, :]
        for u, Ug in zip(of_k.tolist(), batch):
            U[u] = Ug
    diagonal = np.bincount(row, Lam.data * inv[group[cell], slot, slot] * Lam.data, nb)
    return (outer, cgroup, U), diagonal


def _factor(S, where):
    """M = C^-1 D and the pivot ratios of SPD matrices S (n, m, m).

    D scales S to unit diagonal, and C C^T = D S D, so that the ratios, the
    squared diagonal of C, are the pivots of S over its diagonal entries.
    C^-1 is inverted by halves, all factors at once, in
    :func:`_lower_inverse`.  Every failure, a nonpositive diagonal entry
    included, raises ``SingularSystemError`` naming ``where``.
    """
    d = np.diagonal(S, axis1=1, axis2=2)
    if not np.all(d > 0.0):
        raise SingularSystemError("multiplier system not positive definite " + where)
    d = 1.0 / np.sqrt(d)
    try:
        C = np.linalg.cholesky(S * d[:, :, None] * d[:, None, :])
        M = _lower_inverse(C)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(
            "multiplier system not positive definite %s: %s" % (where, err)
        ) from err
    return M * d[:, None, :], np.diagonal(C, axis1=1, axis2=2) ** 2


def _lower_inverse(C):
    """Inverses of lower triangular matrices C (n, m, m), by halves.

    [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], so batched
    products do the work that a general inverse spends on the zeros; orders
    up to ``_HALVES`` are inverted whole.
    """
    m = C.shape[-1]
    if m <= _HALVES:
        return np.linalg.inv(C)
    h = m // 2
    out = np.zeros_like(C)
    out[:, :h, :h] = _lower_inverse(C[:, :h, :h])
    out[:, h:, h:] = _lower_inverse(C[:, h:, h:])
    out[:, h:, :h] = -out[:, h:, h:] @ (C[:, h:, :h] @ out[:, :h, :h])
    return out


class _Level(NamedTuple):
    """The eliminations of one level of blocks, the 2 x 2 patches at level 1.

    Block b lies in group ``group[b]`` of the blocks with equal fronts.
    Group g eliminates the rows ``inner[g]`` (n_g, nI) of ``Lam``, one row
    per block, and passes the updates to the rows ``outer[g]`` (n_g, nO);
    ``M[g]`` = C^-1 D (nI, nI) and ``W[g]`` = M F_IO (nI, nO) of its front F.
    """

    inner: list
    outer: list
    group: np.ndarray
    M: list
    W: list


def _merge(units, diagonal, blocks, depth):
    """The blocks of one level: their eliminations and their updates.

    ``units`` = ``(outer, group, U)`` describes the units of the level
    below, the cells below level 1, as :func:`_cell_updates` does the cells:
    the rows of ``Lam`` that meet each unit, its group, and per group its
    update on those rows.  ``diagonal`` is the diagonal of S.  ``blocks``
    (n, 4), as :func:`_cover` picks them, holds up to four units for each
    block of this level, padded with -1, which stands for an empty unit
    with a 0 x 0 update.  A row is inside a block when the block holds
    every unit that carries it: its (block, row) pair occurs as often as
    the row occurs in ``outer``.  The front of a block has the rows of its
    units in their order, each at its first place, the rows inside the
    block (I) before the others (O), and it is the sum of the units'
    updates, summed by :func:`_extend_add`.  Blocks whose units fall in the
    same groups, with as many inside rows and rows at the same places, form
    a group.  One front per group is formed at its own size m x m, the
    fronts of equal size together, at most ``_FRONT`` entries at a time,
    factored as in :func:`_factor`, D F_II D = C C^T, and freed before the
    next batch.  With M = C^-1 D and W = M F_IO, the block's update F_OO -
    W^T W goes up on its rows O, one (nO, nO) update per group.  Returns
    ``(level, rows, ratio, units)``: the :class:`_Level`, the rows
    eliminated group by group, their pivots over their entries of
    ``diagonal``, and the units of the level above in the form of
    ``units``: the blocks of this level, their rows padded with the row
    count of ``Lam``, then the units below that no block takes, with copies
    of only the updates that they use.
    """
    outer, group, U = units
    nb, n, w = len(diagonal), len(blocks), outer.shape[1]
    carried = np.bincount(outer.ravel(), minlength=nb + 1)
    # the empty unit, last, that -1 in blocks picks
    outer = np.vstack([outer, np.full(w, nb)])
    group, U = np.append(group, len(U)), U + [np.zeros((0, 0))]
    ent = outer[blocks].ravel()
    valid = ent < nb
    # each (block, row) pair once, the pairs in the order of first places
    key = np.repeat(np.arange(n), 4 * w)[valid] * nb + ent[valid]
    first, at = cell_groups(key)
    pair_block, pair_row = np.divmod(key[first], nb)
    # a row is inside a block that holds every unit that carries it
    ins = np.bincount(at) == carried[pair_row]
    nI = np.bincount(pair_block[ins], minlength=n)
    nO = np.bincount(pair_block[~ins], minlength=n)
    rI = np.cumsum(ins) - ins - (np.cumsum(nI) - nI)[pair_block]
    rO = np.cumsum(~ins) - ~ins - (np.cumsum(nO) - nO)[pair_block]
    inside, up = np.full((n, nI.max()), nb), np.full((n, nO.max()), nb)
    inside[pair_block[ins], rI[ins]] = pair_row[ins]
    up[pair_block[~ins], rO[~ins]] = pair_row[~ins]
    # the place of every unit row in its block's front, -1 for padding
    front_at = np.full(4 * n * w, -1)
    front_at[valid] = np.where(ins, rI, nI[pair_block] + rO)[at]
    front_at = front_at.reshape(n, 4, w)
    rep, bgroup = cell_groups(np.c_[group[blocks], nI, front_at.reshape(n, -1)])
    ng = len(rep)
    # the blocks of each group, ascending
    by_group, end = np.argsort(bgroup, kind="stable"), np.cumsum(np.bincount(bgroup)).tolist()
    members = [by_group[a:b] for a, b in zip([0] + end[:-1], end)]

    # the fronts of all groups of one size are formed and factored together
    M, W, U_up, pivot = [None] * ng, [None] * ng, [None] * ng, [None] * ng
    sized, size = cell_groups(np.c_[nI[rep], nO[rep]])
    for s, b in enumerate(rep[sized]):
        mI, m = nI[b], nI[b] + nO[b]
        of_size = np.flatnonzero(size == s)
        step = max(1, _FRONT // m**2)
        for lo in range(0, len(of_size), step):
            gs = of_size[lo : lo + step]
            reps, c = rep[gs], len(gs)
            F = _extend_add(U, group[blocks[reps]], front_at[reps], m)
            Ms, pivots = _factor(F[:, :mI, :mI], "in a block of level %d" % depth)
            Ws = Ms @ F[:, :mI, mI:]
            # the update F_OO - W^T W, written over W^T W
            Us = Ws.transpose(0, 2, 1) @ Ws
            np.subtract(F[:, mI:, mI:], Us, out=Us)
            pivots *= np.diagonal(F, axis1=1, axis2=2)[:, :mI]
            del F
            for g, Mg, Wg, Ug, pg in zip(gs, Ms, Ws, Us, pivots):
                M[g], W[g], U_up[g], pivot[g] = Mg, Wg, Ug, pg
    inner = [inside[b, : nI[b[0]]] for b in members]
    rows = np.concatenate([i.ravel() for i in inner])
    ratio = np.concatenate([np.tile(p, len(b)) for p, b in zip(pivot, members)]) / diagonal[rows]
    worst = np.argmin(ratio)
    if not ratio[worst] >= PIVOT_BREAKDOWN_TOL:
        block = np.concatenate([np.repeat(b, i.shape[1]) for b, i in zip(members, inner)])[worst]
        raise SingularSystemError(
            "multiplier system not positive definite: pivot / diagonal %.3e in block %d of level %d"
            % (ratio[worst], block, depth)
        )
    # the units below that no block takes keep copies of only the updates
    # they use, so that all others are freed with the level below
    rest = np.ones(len(outer), dtype=bool)
    rest[blocks] = False
    rest = np.flatnonzero(rest[:-1])
    used = np.zeros(len(U), dtype=bool)
    used[group[rest]] = True
    up_units = np.full((n + len(rest), max(up.shape[1], w)), nb)
    up_units[:n, : up.shape[1]], up_units[n:, :w] = up, outer[rest]
    return (
        _Level(inner, [up[b, : nO[b[0]]] for b in members], bgroup, M, W),
        rows,
        ratio,
        (
            up_units,
            np.concatenate([bgroup, ng + np.cumsum(used)[group[rest]] - 1]),
            U_up + [U[g].copy() for g in np.flatnonzero(used)],
        ),
    )


def _forward(level, r):
    """Eliminate the level's inner rows from r in place: r_I <- M r_I, r_O -= W^T M r_I.

    One pair of products per group; no outer row of a level is an inner row
    of it, so the updates of all groups are subtracted by one sum at the end.
    """
    rows, updates = [], []
    for inner, outer, M, W in zip(level.inner, level.outer, level.M, level.W):
        t = r[inner] @ M.T
        r[inner] = t
        rows.append(outer.ravel())
        updates.append((t @ W).ravel())
    r -= np.bincount(np.concatenate(rows), np.concatenate(updates), len(r))


def _backward(level, r, mu):
    """Recover the level's inner multipliers in place: mu_I = M^T (r_I - W mu_O), per group."""
    for inner, outer, M, W in zip(level.inner, level.outer, level.M, level.W):
        mu[inner] = (r[inner] - mu[outer] @ W.T) @ M


def _extend_add(U, units, places, m):
    """Fronts (c, m, m), each the sum of the updates ``U`` of its units.

    ``units`` (c, 4) holds the update group of each unit, a group with a
    0 x 0 update where a front has fewer than four units, and ``places``
    (c, 4, w) the places of the unit's rows in its front, its real rows
    first.  One bincount sums the real entries of all units from 0.0, the
    units of each front in their order; the rows of one unit take distinct
    places, so a unit adds to an entry at most once.
    """
    c = len(units)
    units, places = units.T.ravel().tolist(), places.transpose(1, 0, 2).reshape(4 * c, -1)
    size = [U[u].size for u in units]
    index, value = np.empty(sum(size), dtype=np.intp), np.empty(sum(size))
    lo = 0
    for p, (u, n) in enumerate(zip(units, size)):
        at = places[p, : len(U[u])]
        out = index[lo : lo + n].reshape(len(at), len(at))
        np.add(((p % c) * m + at[:, None]) * m, at, out=out)
        value[lo : lo + n] = U[u].ravel()
        lo += n
    return np.bincount(index, value, c * m * m).reshape(c, m, m)


def _local_inverses(local):
    """Symmetrized inverses of local saddle blocks (n, 23, 23), scaled for the inversion.

    Each block is scaled symmetrically by D before ``np.linalg.inv`` and the
    inverse scaled back, inv(X) = D inv(D X D) D: the 20 tensor rows by
    1 / sqrt(|A_ii|), then the three deflection rows by one over the largest
    entry of their row of the scaled |B|.  The blocks of cells far from unit
    size mix entries of very different magnitudes, which an unscaled
    inversion turns into a wrong, even indefinite, S.
    """
    d = np.empty(local.shape[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        d[:, :20] = 1.0 / np.sqrt(np.abs(np.diagonal(local[:, :20, :20], axis1=1, axis2=2)))
        d[:, 20:] = 1.0 / (np.abs(local[:, 20:, :20]) * d[:, None, :20]).max(axis=2)
    if not np.all(np.isfinite(d)):
        raise SingularSystemError("singular local saddle block: a zero or non-finite scale")
    try:
        inv = np.linalg.inv(local * d[:, :, None] * d[:, None, :])
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("singular local saddle block: %s" % err) from err
    inv *= d[:, :, None] * d[:, None, :]
    if not np.all(np.isfinite(inv)):
        raise SingularSystemError("non-finite inverse of a local saddle block")
    return 0.5 * (inv + inv.transpose(0, 2, 1))


def _check_rigid_kernel(P, L, ndofs):
    """Reject a plate whose constraint rows leave the rigid deflections free.

    A global dof that a single local slot holds carries a boundary trace: a
    moment of a boundary edge, or a corner jump at a boundary vertex.  For
    an affine deflection p, B^T p vanishes on every other dof, so when unit
    rows of ``L`` pin all those traces, (m, u) = (0, p) with multipliers
    B^T p solves the homogeneous system and K is singular.  This holds in
    exact arithmetic; no pivot has to show it.
    """
    unit = np.repeat(np.diff(L.indptr) == 1, np.diff(L.indptr))
    pinned = np.zeros(ndofs, dtype=bool)
    pinned[L.indices[unit & (L.data != 0.0)]] = True
    boundary = np.bincount(P.indices, minlength=ndofs) == 1
    if np.all(pinned[boundary]):
        raise SingularSystemError(
            "constraint rows pin every boundary trace, so the rigid deflections "
            "are free: the plate needs a clamped edge"
        )


def solve_saddle(A, b, rtol=1e-10):
    """Solve a plate saddle system by hybridization.

    Parameters
    ----------
    A : SaddleSystem
        The assembled plate, a :class:`ddivfem.system.SaddleSystem`, whose
        cell structure is read.  A matrix from
        :meth:`ddivfem.system.SaddleSystem.full` is accepted too; only the
        system it carries as ``A.plate`` is read.
    b : ndarray
        Real right hand side of shape (n,), with n the order of K.
    rtol : float
        Certified relative residual bound for the returned solution, a
        positive finite number.

    Returns
    -------
    x : ndarray
    info : dict
        Keys ``residual``, ``refined``, ``path`` ('hybrid'), ``patches``
        (number of blocks of level 1, mostly the 2 x 2 patches of four
        cells), ``levels`` (number of block levels above them, the root's
        included), ``root_n`` (rows of the root front, the one block that
        every elimination tree closes in, 0 when there are no multipliers),
        ``condensed_n`` (multipliers eliminated below the root) and
        ``pivot_ratio`` (smallest pivot of any level over its diagonal
        entry of the multiplier system S, None when S is empty).

    Raises ``ValueError`` for an ``rtol`` that is not a positive finite
    number, a matrix without cell structure, a right hand side that is not
    a real vector of shape (n,) or a multiplier row that meets a cell in two
    slots, ``SingularSystemError`` on a singular matrix or a pivot
    breakdown, and ``ResidualError`` when the residual is above ``rtol`` or
    not finite.
    """
    if not (np.isfinite(rtol) and rtol > 0.0):
        raise ValueError("rtol must be a positive finite number, got %r" % (rtol,))
    # a matrix of SaddleSystem.full carries the system; a plain copy does not
    plate = getattr(A, "plate", A)
    if not hasattr(plate, "A_loc"):
        raise ValueError("the cell structure is missing: pass the SaddleSystem")
    n = plate.ndofs + plate.nu + plate.L.shape[0]
    b = np.asarray(b)
    if b.shape != (n,) or np.iscomplexobj(b):
        raise ValueError(
            "expected a real right hand side of shape (%d,), got %s of shape %s"
            % (n, b.dtype, b.shape)
        )
    b = b.astype(float)
    hybrid = HybridSolver(plate)
    solve, info = hybrid.solve, hybrid.info()

    x = solve(b)
    steps = 0
    anorm = hybrid.norm_inf()
    r = b - hybrid.apply(x)
    res = residual_norm(r, x, b, anorm)
    while res > 1e-12 and steps < REFINE_STEPS:
        x_new = x + solve(r)
        r_new = b - hybrid.apply(x_new)
        new_res = residual_norm(r_new, x_new, b, anorm)
        # a step that does not lower the residual is dropped, so that the
        # certified residual is the one of the returned x
        if not new_res < res:
            break
        x, r, res = x_new, r_new, new_res
        steps += 1
    # written so that a NaN residual fails too
    if not res <= rtol:
        raise ResidualError("%s solve residual %.3e exceeds %.3e" % (info["path"], res, rtol))
    info.update(residual=float(res), refined=steps)
    return x, info
