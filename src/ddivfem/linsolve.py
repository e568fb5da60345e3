"""Direct linear solvers with residual control.

Small systems go through LAPACK dense factorizations.  Large sparse saddle
point systems go through SuperLU with COLAMD ordering and partial pivoting,
followed by a few steps of iterative refinement so the final relative
residual is certified rather than hoped for.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: below this dimension the sparse path falls back to a dense factorization
DENSE_FALLBACK_DIM = 600

#: relative magnitude under which a pivot counts as a breakdown
PIVOT_BREAKDOWN_TOL = 1e-13

#: iterative refinement steps after the sparse direct solve, at most
REFINE_STEPS = 3


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when a factorization hits a (near-)zero pivot."""


class ResidualError(RuntimeError):
    """Raised when a solve cannot reach the requested residual."""


def residual_norm(A, x, b):
    """Relative residual ||b - A x|| / max(||b||, ||A|| ||x||) in the inf norm."""
    anorm = spla.norm(A, np.inf) if sp.issparse(A) else np.linalg.norm(A, np.inf)
    denom = max(np.linalg.norm(b, np.inf), anorm * np.linalg.norm(x, np.inf), 1e-300)
    return np.linalg.norm(b - A @ x, np.inf) / denom


def solve_dense(A, b, rtol=1e-10):
    """Solve a dense system, verifying the relative residual.

    Raises ``SingularSystemError`` for singular matrices and
    ``ResidualError`` if the verified residual exceeds ``rtol``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(str(err)) from err
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("non-finite solution entries")
    # one refinement step cleans up marginal conditioning
    x = x + np.linalg.solve(A, b - A @ x)
    res = residual_norm(A, x, b)
    if res > rtol:
        raise ResidualError("dense solve residual %.3e exceeds %.3e" % (res, rtol))
    return x


def _check_pivots(lu):
    """Scan the U factor diagonal of a SuperLU object for breakdown."""
    d = lu.U.diagonal()
    scale = np.abs(d).max()
    if scale == 0.0:
        raise SingularSystemError("factorization produced a zero U diagonal")
    bad = np.nonzero(np.abs(d) < PIVOT_BREAKDOWN_TOL * scale)[0]
    if len(bad):
        raise SingularSystemError(
            "pivot breakdown at factor index %d (|u_ii| = %.3e)" % (bad[0], abs(d[bad[0]]))
        )


def solve_saddle(A, b, rtol=1e-10):
    """Solve a (typically symmetric indefinite) sparse system.

    Parameters
    ----------
    A : sparse matrix
    b : ndarray
    rtol : float
        Certified relative residual bound for the returned solution.

    Returns
    -------
    x : ndarray
    info : dict
        Keys ``residual``, ``refined``, ``path`` ('dense' or 'superlu').

    Raises ``SingularSystemError`` on a singular matrix or a pivot
    breakdown, and ``ResidualError`` when the residual is above ``rtol`` or
    not finite.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if sp.issparse(A):
        A = A.tocsc()
    else:
        A = sp.csc_matrix(A)
    if A.shape != (n, n):
        raise ValueError("matrix/vector shape mismatch: %s vs %d" % (A.shape, n))

    if n < DENSE_FALLBACK_DIM:
        x = solve_dense(A.toarray(), b, rtol=rtol)
        return x, {"residual": residual_norm(A, x, b), "refined": 0, "path": "dense"}

    # COLAMD with standard partial pivoting: symmetric-mode orderings create
    # two orders of magnitude more fill on this saddle structure and lose
    # all accuracy, so the unsymmetric factorization is the right tool
    try:
        lu = spla.splu(A, permc_spec="COLAMD")
    except RuntimeError as err:
        raise SingularSystemError(str(err)) from err
    _check_pivots(lu)

    x = lu.solve(b)
    steps = 0
    res = residual_norm(A, x, b)
    while res > 1e-12 and steps < REFINE_STEPS:
        x = x + lu.solve(b - A @ x)
        steps += 1
        new_res = residual_norm(A, x, b)
        if new_res >= res:
            break
        res = new_res
    # written so that a NaN residual fails too
    if not res <= rtol:
        raise ResidualError("sparse solve residual %.3e exceeds %.3e" % (res, rtol))
    return x, {"residual": res, "refined": steps, "path": "superlu"}
