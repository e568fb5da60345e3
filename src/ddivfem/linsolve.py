"""Direct linear solves with certified residuals.

A plate system

    K = [[A, -B^T, L^T], [-B, 0, 0], [L, 0, 0]]

is symmetric indefinite, and factoring it whole is expensive.  It is solved
by Arnold-Brezzi hybridization instead.  The 20 tensor dofs of every cell
are broken apart, so that the tensor field lives in the local dof space of
all cells, and continuity is imposed by multipliers: a second local copy of
an edge moment must equal the first, and an eliminated corner jump must
balance the kept jumps at its vertex.  The Neumann rows ``L`` are read on the
first local copy of each global dof.  Each cell then carries the 23 x 23
local saddle block [[A_k, -B_k^T], [-B_k, 0]], inverted once per group of
equal cells, and only the multiplier system

    S = Lambda blockdiag(W_k) Lambda^T,

with W_k the tensor block of the local inverse, is factored.  S is symmetric
positive definite exactly when K is regular, so it is factored without
pivoting in a symmetric ordering, and a pivot that falls below
``PIVOT_BREAKDOWN_TOL`` times its diagonal entry of S counts as a
breakdown; the ratio does not move under a diagonal scaling of the dofs.
The one singular case that well-formed plate data can produce, Neumann rows
on the whole boundary with the rigid deflections left free, is rejected from
the sparsity of ``P`` and ``L`` before any factorization, and the pivot test
stays as a backstop.
The tensor field, the deflection and the Neumann multipliers are then
recovered cell by cell.

The solver holds the local saddle blocks and their symmetrized inverses
once per group, as (ngroups, 23, 23) arrays, and every cellwise product
gathers them a fixed number of cells at a time.  Each block is scaled
symmetrically before it is inverted, so that cells of any size give an
accurate inverse.  S is written from Lambda and the inverses without a
block matrix over all cells, and is held only until SuperLU has factored
it: it is freed before the factors are read for the pivot test, which
copies L and U.

Everything is read from the cell structure, a :class:`PlateBlocks`, which
:attr:`ddivfem.system.SaddleSystem.plate` gives; K itself is never formed.
A few steps of iterative refinement follow, so that the final relative
residual is certified rather than hoped for.  Their residuals apply K cell
by cell through the local saddle blocks, and ||K||_inf is bounded from below
by the blocks as well, so the certificate is never looser than one measured
on the assembled K.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: pivot over its diagonal entry of S under which the pivot counts as a breakdown
PIVOT_BREAKDOWN_TOL = 1e-13

#: iterative refinement steps after the direct solve, at most
REFINE_STEPS = 3

#: cells whose local blocks are gathered at once in a cellwise product
_CHUNK = 256


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when a factorization hits a (near-)zero pivot."""


class ResidualError(RuntimeError):
    """Raised when a solve cannot reach the requested residual."""


class PlateBlocks(NamedTuple):
    """Cell structure of a plate saddle matrix.

    A = P^T blockdiag(A_k) P and B = blockdiag(B_k) P, where cell k has the
    blocks ``A_loc[group[k]]`` (20, 20) and ``B_loc[group[k]]`` (3, 20).
    ``L`` holds the constraint rows on the ``ndofs`` tensor dofs, with no
    rows when there are none; ``nu`` is the number of deflection unknowns,
    three per cell.
    """

    P: object
    group: np.ndarray
    A_loc: np.ndarray
    B_loc: np.ndarray
    L: object
    ndofs: int
    nu: int


def residual_norm(r, x, b, anorm):
    """Relative residual ||r|| / max(||b||, ||K|| ||x||) in the inf norm.

    ``r`` is b - K x, and ``anorm`` is ||K||_inf or a lower bound on it,
    computed once per solve by the caller.
    """
    denom = max(np.linalg.norm(b, np.inf), anorm * np.linalg.norm(x, np.inf), 1e-300)
    return np.linalg.norm(r, np.inf) / denom


def factor_spd(S):
    """Symmetric factorization of an SPD matrix and its pivot quality.

    Returns ``(lu, ratio)`` with ``ratio[i]`` the pivot of row i of S over
    ``S[i, i]``: 1 for a diagonal matrix, and at most 1 for any SPD matrix.
    Raises ``SingularSystemError`` when a ratio is below
    ``PIVOT_BREAKDOWN_TOL``, negative ones included, or when the
    factorization leaves the diagonal.
    """
    diag = S.diagonal()
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

    Local dof vectors use 23 slots per cell: the 20 tensor slots of
    :mod:`ddivfem.space`, then the three deflection coefficients.  Cell k
    has the local saddle block ``local[group[k]]`` and its inverse
    ``inv[group[k]]``; ``lu`` factors S, which is not kept.
    """

    def __init__(self, plate):
        P = sp.csr_matrix(plate.P)
        nk = len(plate.group)
        self.ndofs, self.nu = plate.ndofs, plate.nu
        self.P, self.L, self.group = P, sp.csr_matrix(plate.L), plate.group
        _check_rigid_kernel(P, self.L, self.ndofs)

        # Q selects the first local copy of every global dof, so Q P = I
        per_row = np.diff(P.indptr)
        rows = np.repeat(np.arange(P.shape[0]), per_row)
        unit = (per_row[rows] == 1) & (P.data == 1.0)
        dofs, at = np.unique(P.indices[unit], return_index=True)
        if len(dofs) != self.ndofs:
            raise ValueError("%d of %d global dofs have a local copy" % (len(dofs), self.ndofs))
        Q = sp.csr_matrix(
            (np.ones(self.ndofs), (dofs, rows[unit][at])), shape=(self.ndofs, 20 * nk)
        )
        # continuity: the nonzero rows of I - P Q, a second copy against the
        # first, or an eliminated jump plus the kept jumps at its vertex
        R = (sp.identity(20 * nk, format="csr") - P @ Q).tocsr()
        R.eliminate_zeros()
        R = R[np.diff(R.indptr) > 0]
        Lam = sp.vstack([R, self.L @ Q], format="csr")
        self.n_continuity = R.shape[0]

        # move tensor slot s of cell k to column 23 k + s
        self.Q = _widen(Q)
        self.Lam = _widen(Lam)

        local = np.zeros((len(plate.A_loc), 23, 23))
        local[:, :20, :20] = plate.A_loc
        local[:, :20, 20:] = -plate.B_loc.transpose(0, 2, 1)
        local[:, 20:, :20] = -plate.B_loc
        self.local = local
        self.inv = _local_inverses(local)

        # S is built, factored and dropped in one expression, so no reference
        # to it outlives the factorization
        self.schur_n = self.Lam.shape[0]
        self.lu, self.pivot_ratio = None, None
        if self.schur_n > 0:
            self.lu, ratio = factor_spd(self._schur())
            self.pivot_ratio = float(ratio.min())

    def _schur(self):
        """S = Lam blockdiag(inv[group]) Lam^T, in csc form.

        The nonzero of Lam in column 23 k + s contributes its value times
        row s of cell k's inverse, so W = Lam blockdiag(inv[group]) is
        written entry by entry over the 20 tensor columns of the cell; its
        deflection columns meet only zero rows of Lam^T.
        """
        Lam = self.Lam
        cell, slot = np.divmod(Lam.indices, 23)
        data = Lam.data[:, None] * self.inv[self.group[cell], slot, :20]
        cols = 23 * cell[:, None] + np.arange(20, dtype=cell.dtype)
        W = sp.csr_matrix((data.ravel(), cols.ravel(), 20 * Lam.indptr), shape=Lam.shape)
        return (W @ Lam.T).tocsc()

    def info(self):
        return {
            "path": "hybrid",
            "schur_n": self.schur_n,
            "fill": self.lu.nnz if self.lu is not None else 0,
            "pivot_ratio": self.pivot_ratio,
        }

    def solve(self, b):
        """Solution of K x = b, with x = (m, u, lambda) as K orders it."""
        nd, nu = self.ndofs, self.nu
        z = self.Q.T @ b[:nd]
        z.reshape(-1, 23)[:, 20:] = b[nd : nd + nu].reshape(-1, 3)
        r = self.Lam @ self._cellwise(self.inv, z)
        r[self.n_continuity :] -= b[nd + nu :]
        mu = self.lu.solve(r) if self.lu is not None else r
        y = self._cellwise(self.inv, z - self.Lam.T @ mu)
        # the Neumann multipliers are those of K, since P^T (I - P Q)^T = 0
        u = y.reshape(-1, 23)[:, 20:].ravel()
        return np.concatenate([self.Q @ y, u, mu[self.n_continuity :]])

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
    """Columns 20 k + s of X moved to 23 k + s."""
    X = sp.csr_matrix(X)
    cols = 23 * (X.indices // 20) + X.indices % 20
    return sp.csr_matrix((X.data, cols, X.indptr), shape=(X.shape[0], 23 * (X.shape[1] // 20)))


def solve_saddle(A, b, rtol=1e-10):
    """Solve a plate saddle system by hybridization.

    Parameters
    ----------
    A : PlateBlocks
        The cell structure of the plate, :attr:`ddivfem.system.SaddleSystem.plate`.
        A matrix from :meth:`ddivfem.system.SaddleSystem.full` is accepted
        too; only the cell structure it carries as ``A.plate`` is read.
    b : ndarray
    rtol : float
        Certified relative residual bound for the returned solution, a
        positive finite number.

    Returns
    -------
    x : ndarray
    info : dict
        Keys ``residual``, ``refined``, ``path`` ('hybrid'), ``schur_n``
        (size of the multiplier system S), ``fill`` (nonzeros of its
        factors) and ``pivot_ratio`` (smallest pivot over its diagonal entry
        of S, None when S is empty).

    Raises ``ValueError`` for an ``rtol`` that is not a positive finite
    number, a matrix without cell structure or a size mismatch,
    ``SingularSystemError`` on a singular matrix or a pivot breakdown, and
    ``ResidualError`` when the residual is above ``rtol`` or not finite.
    """
    if not (np.isfinite(rtol) and rtol > 0.0):
        raise ValueError("rtol must be a positive finite number, got %r" % (rtol,))
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    # a matrix of SaddleSystem.full carries the blocks; a plain copy does not
    plate = A if isinstance(A, PlateBlocks) else getattr(A, "plate", None)
    if plate is None:
        raise ValueError("the cell structure is missing: pass SaddleSystem.plate")
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
