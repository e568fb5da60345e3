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
one that ``Q`` selects.  Each cell then carries the 23 x 23 local saddle
block [[A_k, -B_k^T], [-B_k, 0]], inverted once per group of equal cells.
The multiplier system

    S = Lambda blockdiag(W_k) Lambda^T,

with W_k the tensor block of the local inverse, is symmetric positive
definite exactly when K is regular.  Before anything is factored, the mesh
is cut into small subdomains, as in FETI (C. Farhat, F.-X. Roux, IJNME 32
(1991) 1205-1227): 2 x 2 patches, the four cells around an interior vertex,
read off the jump rows that touch four cells in one greedy pass; a cell
that no patch covers is a patch of its own.  Each patch eliminates its 16 inner
edge-moment rows and the jump row of its center vertex against its cell
inverses G, with one scaled 17 x 17 SPD solve per group of equal patches:

    G~ = G - G Lambda_I^T (Lambda_I G Lambda_I^T)^-1 Lambda_I G.

Only the condensed system S_c = Lambda_B G~ Lambda_B^T on the rows between
patches and the Neumann rows is handed to SuperLU, in symmetric mode
without pivoting.  S_c is written patch by patch on the clique pattern of
the patches, explicit zeros included, so that its ordering and fill follow
the mesh and not the rounding of its entries.  The pivots of both stages,
in the order [patch interiors, rest], are the pivots of S itself, and each
is divided by its diagonal entry of the uncondensed S; a ratio below
``PIVOT_BREAKDOWN_TOL`` counts as a breakdown in either stage.  The ratio
does not move under a diagonal scaling of the dofs.
The one singular case that well-formed plate data can produce, Neumann rows
on the whole boundary with the rigid deflections left free, is rejected from
the sparsity of ``P`` and ``L`` before any factorization, and the pivot test
stays as a backstop.
The tensor field, the deflection and the Neumann multipliers are then
recovered patch by patch as y = G~ (z - Lambda_B^T mu).

The solver holds the local saddle blocks and their symmetrized inverses
once per cell group, as (ngroups, 23, 23) arrays, and the elimination of
the patch interiors once per patch group; every cellwise or patchwise
product gathers them a fixed number of cells at a time.  Each local block
is scaled symmetrically before it is inverted, so that cells of any size
give an accurate inverse.  S_c is written from Lambda_B and these blocks
without a matrix over all cells, and is held only until SuperLU has
factored it: it is freed before the factors are read for the pivot test,
which copies L and U.

Everything is read from the cell structure of the assembled
:class:`ddivfem.system.SaddleSystem`: ``dofmap``, ``group``, ``A_loc``,
``B_loc``, ``L``, ``ndofs`` and ``nu``; K itself is never formed.
A few steps of iterative refinement follow, so that the final relative
residual is certified rather than hoped for.  Their residuals apply K cell
by cell through the local saddle blocks, and ||K||_inf is bounded from below
by the blocks as well, so the certificate is never looser than one measured
on the assembled K.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import cell_groups

#: pivot over its diagonal entry of S under which the pivot counts as a breakdown
PIVOT_BREAKDOWN_TOL = 1e-13

#: iterative refinement steps after the direct solve, at most
REFINE_STEPS = 3

#: cells whose local blocks are gathered at once in a cellwise product
_CHUNK = 256

#: patches whose dense row blocks are formed at once when S_c is built
_PATCHES = 16


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


def factor_spd(S, diag):
    """Symmetric factorization of an SPD matrix and its pivot quality.

    Returns ``(lu, ratio)`` with ``ratio[i]`` the pivot of row i of S over
    ``diag[i]``.  With ``diag`` the diagonal of S, a ratio is 1 for a
    diagonal matrix and at most 1 for any SPD matrix.  When S is a Schur
    complement of a larger SPD matrix, ``diag`` holds that matrix's
    diagonal on the rows of S, and the ratios are those of the whole
    elimination.  Raises ``SingularSystemError`` when a ratio is below
    ``PIVOT_BREAKDOWN_TOL``, negative ones included, or when the
    factorization leaves the diagonal.
    """
    try:
        lu = spla.splu(
            S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as err:
        raise SingularSystemError(str(err)) from err
    # the factor keeps no reference to S, so when the caller holds none
    # either, S is freed here, before lu.U makes csc copies of L and U;
    # CPython 3.11 and later hand a call's arguments over to the callee, so
    # factor_spd(expression) leaves the caller none
    del S
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularSystemError("off-diagonal pivot in a symmetric factorization")
    # Pr S Pc = L U, and row i of S is row perm_c[i] of the permuted matrix
    ratio = lu.U.diagonal()[lu.perm_c] / diag
    worst = int(np.argmin(ratio))
    if not ratio[worst] >= PIVOT_BREAKDOWN_TOL:
        raise SingularSystemError(
            "multiplier system not positive definite: pivot / diagonal %.3e at row %d"
            % (ratio[worst], worst)
        )
    return lu, ratio


class HybridSolver:
    """Hybridized solve of a plate saddle matrix from its cell structure.

    ``plate`` is a :class:`ddivfem.system.SaddleSystem`, or anything with
    its attributes ``dofmap``, ``group``, ``A_loc``, ``B_loc``, ``L``,
    ``ndofs`` and ``nu``, and ``dofmap`` provides ``P``, ``Q`` and ``C``.

    Local dof vectors use 23 slots per cell: the 20 tensor slots of
    :mod:`ddivfem.space`, then the three deflection coefficients.  Cell k
    has the local saddle block ``local[group[k]]`` and its inverse
    ``inv[group[k]]``.  The cells are covered by ``patches``: each row holds
    the four cells around an interior vertex, or one cell padded with the
    index ``ncells``.  ``Lam_I`` holds the multiplier rows inside the
    patches, patch by patch, and ``Lam_B`` the rest, continuity rows before
    Neumann rows.  Patch p eliminates its rows of ``Lam_I`` through
    ``V[pgroup[p]]``, and ``lu`` factors the condensed multiplier system
    S_c, which is not kept.
    """

    def __init__(self, plate):
        nk = len(plate.group)
        self.ndofs, self.nu = plate.ndofs, plate.nu
        self.P, self.L, self.group = plate.dofmap.P, sp.csr_matrix(plate.L), plate.group
        _check_rigid_kernel(self.P, self.L, self.ndofs)

        # move tensor slot s of cell k to column 23 k + s
        R = _widen(plate.dofmap.C)
        self.Q = _widen(plate.dofmap.Q)

        local = np.zeros((len(plate.A_loc), 23, 23))
        local[:, :20, :20] = plate.A_loc
        local[:, :20, 20:] = -plate.B_loc.transpose(0, 2, 1)
        local[:, 20:, :20] = -plate.B_loc
        self.local = local
        self.inv = _local_inverses(local)

        # the continuity rows inside a patch are condensed; Neumann rows never are
        self.patches, inside = _patch_cover(R, nk)
        self.Lam_I = R[inside]
        outside = np.delete(np.arange(R.shape[0]), inside)
        self.Lam_B = sp.vstack([R[outside], self.L @ self.Q], format="csr")
        self.pgroup, self.V, ratio = _condense(
            self.Lam_I, self.patches, self._cell_inverses(), self.inv
        )

        # S_c is built, factored and dropped in one expression, so no
        # reference to it outlives the factorization
        self.schur_n = self.Lam_B.shape[0]
        self.lu = None
        if self.schur_n > 0:
            # the pivots of S_c are measured against the diagonal of S
            diagonal = np.zeros(self.schur_n)
            self.lu, ratio_c = factor_spd(self._schur(diagonal), diagonal)
            ratio = np.concatenate([ratio, ratio_c])
        self.pivot_ratio = float(ratio.min()) if len(ratio) else None

    def _cell_inverses(self):
        """Index in ``inv`` of each patch cell's inverse (npatch, 4), -1 for a padding cell.

        A padding cell meets only zero rows, so the last inverse it reads
        adds nothing.
        """
        return np.append(self.group, -1)[self.patches]

    def info(self):
        return {
            "path": "hybrid",
            "schur_n": self.schur_n,
            "fill": self.lu.nnz if self.lu is not None else 0,
            "pivot_ratio": self.pivot_ratio,
            "patches": int(np.count_nonzero(self.patches[:, 1] < len(self.group))),
            "condensed_n": self.Lam_I.shape[0],
        }

    def _schur(self, diagonal):
        """S_c = Lam_B G~ Lam_B^T in csc form, with G~ the condensed patch inverses.

        Patch p adds E (Gp - Vp^T Vp) E^T, with Gp its cell inverses and E
        the rows of ``Lam_B`` that meet it, restricted to its 80 tensor
        slots.  Every pair of rows that meets a common patch gets an entry,
        so the pattern is that of the mesh, explicit zeros included, and the
        ordering does not follow the rounding of the entries.  The dense
        blocks exist ``_PATCHES`` patches at a time.  ``diagonal`` gains
        diag(Lam_B G Lam_B^T), the diagonal of the uncondensed S on these rows.
        """
        Lam, npatch = self.Lam_B, len(self.patches)
        nb = Lam.shape[0]
        cell, slot = np.divmod(Lam.indices, 23)
        patch_of, place = _places(self.patches)
        # (patch, row) pairs in patch-major order, and each row's rank in its patch
        key = patch_of[cell] * nb + np.repeat(np.arange(nb), np.diff(Lam.indptr))
        pair, at = np.unique(key, return_inverse=True)
        at = at.reshape(-1)
        pair_patch = pair // nb
        count = np.bincount(pair_patch, minlength=npatch)
        rank = np.arange(len(pair)) - (np.cumsum(count) - count)[pair_patch]
        table = np.full((npatch, count.max(initial=0)), -1, dtype=np.int32)
        table[pair_patch, rank] = pair % nb
        order = np.argsort(at, kind="stable")
        starts = np.arange(0, npatch, _PATCHES)
        bounds = np.append(np.searchsorted(pair_patch[at[order]], starts), len(order))

        # the entries, patch by patch: every pair of rows that meets the patch
        valid = table >= 0
        pairs = valid[:, :, None] & valid[:, None, :]
        i = np.broadcast_to(table[:, :, None], pairs.shape)[pairs]
        j = np.broadcast_to(table[:, None, :], pairs.shape)[pairs]
        ends = np.concatenate([[0], np.cumsum(pairs.sum(axis=(1, 2)))])
        data = np.empty(len(i))

        inverses = self._cell_inverses()
        m = self.V.shape[1]
        for lo, nz in zip(starts, np.split(order, bounds[1:-1])):
            patches = slice(lo, lo + _PATCHES)
            c, r = table[patches].shape
            # E and F = E Gp, cell by cell, on the 4 x 20 tensor slots
            E = np.zeros((c, r, 4, 20))
            E[patch_of[cell[nz]] - lo, rank[at[nz]], place[cell[nz]], slot[nz]] = Lam.data[nz]
            F = np.empty_like(E)
            for q in range(4):
                np.matmul(E[:, :, q], self.inv[inverses[patches, q], :20, :20], out=F[:, :, q])
            E, F = E.reshape(c, r, 80).transpose(0, 2, 1), F.reshape(c, r, 80)
            V = self.V[self.pgroup[patches]].reshape(c, m, 4, 23)[..., :20]
            U = V.reshape(c, m, 80) @ E
            block = F @ E
            at_rows = valid[patches]
            diagonal += np.bincount(
                table[patches][at_rows],
                np.diagonal(block, axis1=1, axis2=2)[at_rows],
                minlength=nb,
            )
            block -= U.transpose(0, 2, 1) @ U
            data[ends[lo] : ends[lo + c]] = block[pairs[patches]]
        # the last chunk's blocks go before the conversion allocates the matrix
        del E, F, V, U, block
        return sp.coo_matrix((data, (i, j)), shape=(nb, nb)).tocsc()

    def solve(self, b):
        """Solution of K x = b, with x = (m, u, lambda) as K orders it."""
        nd, nu = self.ndofs, self.nu
        nl = self.L.shape[0]
        z = self.Q.T @ b[:nd]
        z.reshape(-1, 23)[:, 20:] = b[nd : nd + nu].reshape(-1, 3)
        r = self.Lam_B @ self._condensed(z)
        r[self.schur_n - nl :] -= b[nd + nu :]
        mu = self.lu.solve(r) if self.lu is not None else r
        y = self._condensed(z - self.Lam_B.T @ mu)
        # the Neumann multipliers are those of K, since P^T (I - P Q)^T = 0
        u = y.reshape(-1, 23)[:, 20:].ravel()
        return np.concatenate([self.Q @ y, u, mu[self.schur_n - nl :]])

    def _condensed(self, z):
        """G~ z: the cell inverses applied to z, less each patch's Vp^T Vp z_p."""
        nk = len(self.group)
        zk = np.concatenate([z.reshape(-1, 23), np.zeros((1, 23))])
        out = np.zeros_like(zk)
        for lo in range(0, len(self.patches), _CHUNK // 4):
            patches = self.patches[lo : lo + _CHUNK // 4]
            V = self.V[self.pgroup[lo : lo + _CHUNK // 4]]
            t = V @ zk[patches].reshape(len(patches), 92, 1)
            out[patches] = (V.transpose(0, 2, 1) @ t).reshape(-1, 4, 23)
        return (self._cellwise(self.inv, z).reshape(-1, 23) - out[:nk]).reshape(z.shape)

    def apply(self, x):
        """K x from the local saddle blocks, with x = (m, u, lambda) as K orders it."""
        nd, nu = self.ndofs, self.nu
        m, lam = x[:nd], x[nd + nu :]
        z = np.empty((len(self.group), 23))
        z[:, :20] = (self.P @ m).reshape(-1, 20)
        z[:, 20:] = x[nd : nd + nu].reshape(-1, 3)
        out = self._cellwise(self.local, z)
        top = self.P.T @ out[:, :20].ravel() + self.L.T @ lam
        return np.concatenate([top, out[:, 20:].ravel(), self.L @ m])

    def _cellwise(self, blocks, z):
        """blocks[group[k]] @ z_k for every cell k, z in the shape (ncells, 23) or flat.

        The blocks are gathered ``_CHUNK`` cells at a time, so neither a
        copy per cell of the whole mesh nor a Python step per group is made.
        """
        zk = z.reshape(-1, 23)
        out = np.empty_like(zk)
        for lo in range(0, len(zk), _CHUNK):
            cells = slice(lo, lo + _CHUNK)
            out[cells] = (blocks[self.group[cells]] @ zk[cells, :, None])[..., 0]
        return out.reshape(z.shape)

    def norm_inf(self):
        """Lower bound on ||K||_inf from the local blocks.

        The rows of -B and of L are exact, and so is every column sum of
        |B| and |L|, because within one cell no two slots share a global
        dof.  A row of A contributes only its diagonal entry, so the bound
        is ||K||_inf when the rows of -B or L dominate.
        """
        absP = abs(self.P)
        absB = np.abs(self.local[:, 20:, :20])
        diag_A = np.diagonal(self.local[:, :20, :20], axis1=1, axis2=2)
        # the |P| row sums of each cell's slots weight the rows of |B_k|
        weight = (absP @ np.ones(self.ndofs)).reshape(-1, 20)
        norm_B = np.einsum("kar,kr->ka", absB[self.group], weight).max()
        absL = abs(self.L)
        norm_L = np.max(absL @ np.ones(self.ndofs), initial=0.0)
        rows_A = (
            self.P.multiply(self.P).T @ diag_A[self.group].ravel()
            + absP.T @ absB.sum(axis=1)[self.group].ravel()
            + absL.T @ np.ones(absL.shape[0])
        )
        return max(norm_B, norm_L, rows_A.max())


def _patch_cover(R, nk):
    """2 x 2 patches that cover the cells, and the continuity rows inside them.

    R holds the continuity rows on 23 slots per cell.  A row that touches
    four cells is the eliminated jump of an interior vertex with four cells
    around it.  One greedy pass over these rows, in their order, takes the
    four cells as a patch when none of them is taken yet; each cell left
    over is a patch of its own, padded with the index ``nk``.  Returns
    ``(patches, inside)``: the (npatch, 4) cells of the patches, and the
    rows of R whose cells all lie in one patch, patch by patch.
    """
    cell = R.indices // 23
    start = R.indptr[:-1]
    quads = cell[start[np.diff(R.indptr) == 4][:, None] + np.arange(4)]
    quads = quads[np.all(np.diff(quads, axis=1) != 0, axis=1)]
    free = [True] * nk
    chosen = []
    for a, b, c, d in quads.tolist():
        if free[a] and free[b] and free[c] and free[d]:
            free[a] = free[b] = free[c] = free[d] = False
            chosen.append((a, b, c, d))
    lone = np.flatnonzero(free)
    patches = np.concatenate(
        [np.array(chosen, dtype=int).reshape(-1, 4), np.full((len(lone), 4), nk)]
    )
    patches[len(chosen) :, 0] = lone
    if R.shape[0] == 0:
        return patches, np.zeros(0, dtype=int)
    owner = _places(patches)[0][cell]
    first = np.minimum.reduceat(owner, start)
    inside = np.flatnonzero(first == np.maximum.reduceat(owner, start))
    return patches, inside[np.argsort(first[inside], kind="stable")]


def _places(patches):
    """Patch and place (0 to 3) in it of every cell index that ``patches`` holds."""
    patch_of = np.empty(patches.max() + 1, dtype=np.int64)
    place = np.empty_like(patch_of)
    patch_of[patches] = np.arange(len(patches))[:, None]
    place[patches] = np.arange(4)
    return patch_of, place


def _condense(Lam_I, patches, cell_inv, inv):
    """Patch groups and the elimination of the rows inside each patch.

    ``Lam_I`` holds the rows inside the patches, patch by patch, and
    ``cell_inv`` the index in ``inv`` of each patch cell's inverse, -1 for
    a padding cell, which meets only zero rows.  Patches whose cells share
    their inverses and whose inside rows agree on the 92 patch slots form a
    group; the groups are numbered by their first patches.
    A group with inside rows X and cell inverses Gp (92 x 92) scales its SPD
    system S_p = X Gp X^T to unit diagonal by D and factors D S_p D = C C^T;
    then V = C^-1 D X Gp, so that Gp - V^T V is the condensed patch
    inverse, one 17 x 17 solve per group.  Returns ``(pgroup, V, ratio)``
    with ``ratio`` the pivots of the inside rows over their diagonal
    entries of S, the first stage of the pivot test.
    """
    npatch, ni = len(patches), Lam_I.shape[0]
    cell, slot = np.divmod(Lam_I.indices, 23)
    patch_of, place = _places(patches)
    owner = patch_of[cell]
    # rank of each row in its patch, and of each nonzero among the patch's
    rows = np.bincount(owner[Lam_I.indptr[:-1]], minlength=npatch)
    row = np.repeat(np.arange(ni), np.diff(Lam_I.indptr))
    r = row - (np.cumsum(rows) - rows)[owner]
    col = 23 * place[cell] + slot
    nnz = np.bincount(owner, minlength=npatch)
    k = np.arange(len(owner)) - (np.cumsum(nnz) - nnz)[owner]
    width = nnz.max(initial=0)
    key = np.full((npatch, 4 + 3 * width), -1.0)
    key[:, :4] = cell_inv
    key[owner, 4 + k] = r
    key[owner, 4 + width + k] = col
    key[owner, 4 + 2 * width + k] = Lam_I.data
    rep, pgroup = cell_groups(key)

    # the inside rows of one patch per group, eliminated _CHUNK // 4 groups at a time
    ng, m = len(rep), rows.max(initial=0)
    of_rep = np.full(npatch, -1)
    of_rep[rep] = np.arange(ng)
    sel = of_rep[owner] >= 0
    X = np.zeros((ng, m, 92))
    X[of_rep[owner[sel]], r[sel], col[sel]] = Lam_I.data[sel]
    inside = np.arange(m) < rows[rep][:, None]
    V, ratio = np.empty_like(X), np.empty((ng, m))
    # a mesh without patches has no rows to eliminate, and no 0 x 0 factor is asked for
    for lo in range(0, ng if m else 0, _CHUNK // 4):
        reps = slice(lo, lo + _CHUNK // 4)
        V[reps], ratio[reps] = _eliminate(X[reps], inv, cell_inv[rep[reps]], inside[reps])
    if inside.any():
        g, i = np.unravel_index(np.argmin(np.where(inside, ratio, np.inf)), ratio.shape)
        if not ratio[g, i] >= PIVOT_BREAKDOWN_TOL:
            raise SingularSystemError(
                "multiplier system not positive definite: pivot / diagonal %.3e in patch %d"
                % (ratio[g, i], rep[g])
            )
    return pgroup, V, ratio[inside]


def _eliminate(X, inv, cells, inside):
    """V = C^-1 D X Gp and the pivot ratios of patches with inside rows X (n, m, 92).

    ``inv[cells[p]]`` are the inverses of the four cells of patch p, whose
    block diagonal is Gp, and ``inside`` (n, m) marks the rows of X that a
    patch has; the others are zero and get a unit diagonal entry.  D
    scales S_p = X Gp X^T to unit diagonal, and C C^T = D S_p D, so that
    the ratios, the squared diagonal of C, are the pivots of S_p over its
    diagonal entries.
    """
    n, m = X.shape[:2]
    XG = np.empty_like(X)
    for q in range(4):
        slots = slice(23 * q, 23 * q + 23)
        np.matmul(X[:, :, slots], inv[cells[:, q]], out=XG[:, :, slots])
    S = XG @ X.transpose(0, 2, 1)
    g, i = np.nonzero(~inside)
    S[g, i, i] = 1.0
    d = np.diagonal(S, axis1=1, axis2=2)
    if not np.all(d > 0.0):
        raise SingularSystemError("multiplier system not positive definite inside a patch")
    d = 1.0 / np.sqrt(d)
    try:
        C = np.linalg.cholesky(S * d[:, :, None] * d[:, None, :])
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(
            "multiplier system not positive definite inside a patch"
        ) from err
    XG *= d[:, :, None]
    return np.linalg.inv(C) @ XG, np.diagonal(C, axis1=1, axis2=2) ** 2


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
    L = sp.csr_matrix(L)
    unit = np.repeat(np.diff(L.indptr) == 1, np.diff(L.indptr))
    pinned = np.zeros(ndofs, dtype=bool)
    pinned[L.indices[unit & (L.data != 0.0)]] = True
    boundary = np.bincount(P.indices, minlength=ndofs) == 1
    if np.all(pinned[boundary]):
        raise SingularSystemError(
            "constraint rows pin every boundary trace, so the rigid deflections "
            "are free: the plate needs a clamped edge"
        )


def _widen(X):
    """Columns 20 k + s of a csr matrix X moved to 23 k + s."""
    cols = 23 * (X.indices // 20) + X.indices % 20
    return sp.csr_matrix((X.data, cols, X.indptr), shape=(X.shape[0], 23 * (X.shape[1] // 20)))


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
    rtol : float
        Certified relative residual bound for the returned solution, a
        positive finite number.

    Returns
    -------
    x : ndarray
    info : dict
        Keys ``residual``, ``refined``, ``path`` ('hybrid'), ``patches``
        (number of 2 x 2 patches), ``condensed_n`` (multipliers eliminated
        inside them), ``schur_n`` (size of the condensed system S_c that
        SuperLU factors, 0 when every multiplier is condensed), ``fill``
        (nonzeros of its factors) and ``pivot_ratio`` (smallest pivot of
        either stage over its diagonal entry of the uncondensed multiplier
        system S, None when S is empty).

    Raises ``ValueError`` for an ``rtol`` that is not a positive finite
    number, a matrix without cell structure or a size mismatch,
    ``SingularSystemError`` on a singular matrix or a pivot breakdown, and
    ``ResidualError`` when the residual is above ``rtol`` or not finite.
    """
    if not (np.isfinite(rtol) and rtol > 0.0):
        raise ValueError("rtol must be a positive finite number, got %r" % (rtol,))
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    # a matrix of SaddleSystem.full carries the system; a plain copy does not
    plate = getattr(A, "plate", A)
    if not hasattr(plate, "A_loc"):
        raise ValueError("the cell structure is missing: pass the SaddleSystem")
    if plate.ndofs + plate.nu + plate.L.shape[0] != n:
        raise ValueError("cell structure does not match a right hand side of size %d" % n)
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
    info.update(residual=res, refined=steps)
    return x, info
