"""Numeric kernels: residual sweeps and pivoted elimination, in numpy.

The hot loops of the engine live here: residual evaluation of points
against plane families, and the pivoted elimination that fits a plane
through a batch of midpoints.  There is one path, vectorised numpy.

Kernels are pure: counting multiplications and additions is the caller's
job (the counts are determined by the shapes involved, and by the tallies
the elimination kernel returns).
"""

from __future__ import annotations

import numpy as np

GAUSS_OK = 0
GAUSS_INCONSISTENT = 1


def residuals_point(planes: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Residuals 1 + alpha_j . p of one point against q planes; shape (q,)."""
    return 1.0 + planes @ p


def residuals_block(points: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Residuals 1 + alpha_j . x_i of N points against q planes; shape (N, q)."""
    return 1.0 + points @ planes.T


def residuals_plane(points: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Residuals 1 + alpha . x_i of N points against one plane; shape (N,)."""
    r = points @ alpha
    r += 1.0
    return r


def gauss_solve(
    m: np.ndarray,
    rhs: np.ndarray,
    free_vals: np.ndarray,
    rank_rtol: float = 1e-10,
    consistency_tol: float = 1e-8,
):
    """Solve m @ alpha = rhs by elimination with full pivoting.

    Rank-deficient directions take their values from ``free_vals`` (indexed
    by original column).  Returns ``(alpha, status, rank, mults, adds)``
    where status is GAUSS_OK or GAUSS_INCONSISTENT and mults/adds tally the
    arithmetic actually performed.
    """
    a = m.astype(np.float64)
    b = rhs.astype(np.float64)
    k, n = a.shape
    col_order = np.arange(n)
    mults = 0
    adds = 0

    rank = 0
    pivot0 = 0.0
    for t in range(min(k, n)):
        sub = np.abs(a[t:, t:])
        pi, pj = divmod(int(sub.argmax()), n - t)
        piv = float(sub[pi, pj])
        pi += t
        pj += t
        if t == 0:
            pivot0 = piv
            if piv == 0.0:
                break
        elif piv <= rank_rtol * pivot0:
            break
        if pi != t:
            row = a[t].copy()
            a[t], a[pi] = a[pi], row
            b[t], b[pi] = b[pi], b[t]
        if pj != t:
            col = a[:, t].copy()
            a[:, t], a[:, pj] = a[:, pj], col
            col_order[t], col_order[pj] = col_order[pj], col_order[t]
        rows = k - t - 1
        if rows > 0:
            lam = a[t + 1:, t] / a[t, t]
            a[t + 1:, t + 1:] -= lam[:, None] * a[t, t + 1:]
            b[t + 1:] -= lam * b[t]
            a[t + 1:, t] = 0.0
            mults += rows + rows * (n - t - 1) + rows
            adds += rows * (n - t - 1) + rows
        rank = t + 1

    status = GAUSS_INCONSISTENT if np.any(np.abs(b[rank:]) > consistency_tol) else GAUSS_OK

    xv = np.empty(n)
    xv[rank:] = free_vals[col_order[rank:]]
    for t in range(rank - 1, -1, -1):
        tail = n - t - 1
        acc = b[t]
        if tail > 0:
            acc -= a[t, t + 1:] @ xv[t + 1:]
            mults += tail
            adds += tail
        xv[t] = acc / a[t, t]
        mults += 1
    alpha = np.empty(n)
    alpha[col_order] = xv
    return alpha, status, rank, mults, adds
