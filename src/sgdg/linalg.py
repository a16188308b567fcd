"""Modified Cholesky decomposition Q = L' D L and the unit triangular solve.

L is unit-diagonal and upper triangular: only entries L[i, j] with i < j may
be nonzero, and for a graph-patterned factor only on edges (i, j). Under a
perfect elimination ordering of a decomposable graph the factor of any
Q in P_G has exactly the graph's support above the diagonal.
"""

import numpy as np


class NotPositiveDefinite(ValueError):
    """Raised when a factorization pivot is not strictly positive."""


def modified_cholesky(q):
    """Factor a symmetric positive definite matrix as Q = L' D L.

    Parameters
    ----------
    q : (k, k) array_like, symmetric positive definite.

    Returns
    -------
    (L, D) with L unit upper triangular and D the positive pivot vector; the
    decomposition is unique.

    Raises
    ------
    NotPositiveDefinite
        If q is not positive definite, or a pivot D_i is not positive (an
        infinite entry of q can give a NaN pivot).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be square")
    if not np.allclose(q, q.T, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(q).max())):
        raise ValueError("q must be symmetric")
    try:
        r = np.linalg.cholesky(q)  # q = r r', r lower triangular
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    d = np.diag(r)
    lmat = (r / d[np.newaxis, :]).T
    # exact zeros above the numerical noise floor keep the factor triangular
    lmat = np.triu(lmat)
    np.fill_diagonal(lmat, 1.0)
    D = d**2
    if not np.all(D > 0.0):
        raise NotPositiveDefinite("all diagonal entries of D must be positive")
    return lmat, D


def solve_unit_triangular(L, b):
    """Solve L x = b by back substitution over the sparse rows of L.

    L is a (k, k) unit upper-triangular array, such as `SgdgParams.L`. b may
    be a vector of length k or a (k, m) matrix of stacked right-hand sides;
    the result has the same shape.
    """
    x = np.asarray(b, dtype=float).copy()  # C order, so each row of x is contiguous
    for i in range(L.shape[0] - 2, -1, -1):
        row = L[i, i + 1 :]
        nz = np.nonzero(row)[0]
        if nz.size:
            x[i] -= row[nz] @ x[i + 1 + nz]
    return x
