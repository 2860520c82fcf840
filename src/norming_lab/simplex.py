"""Self-contained dense simplex (Bland's rule) for the per-point norming LPs.

The instances are tiny (a handful of variables, a few dozen constraints),
so a plain tableau method is plenty. Bland's rule guarantees termination.
"""
from __future__ import annotations

import numpy as np

_TOL = 1e-9
# pivots before simplex_maximize gives up
MAX_ITER = 20000


class SimplexError(RuntimeError):
    pass


def simplex_maximize(c, A, b):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Returns (value, x). The origin is feasible by assumption, so no
    phase-one step is needed.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < -_TOL):
        raise SimplexError("requires b >= 0 (origin feasible)")

    # tableau: rows = constraints, cols = [x, slack, rhs]
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(MAX_ITER):
        # Bland: entering = smallest index with negative reduced cost
        reduced = T[m, :n + m]
        candidates = np.nonzero(reduced < -_TOL)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return float(T[m, -1]), x[:n]
        j = int(candidates[0])
        col = T[:m, j]
        pos = col > _TOL
        if not np.any(pos):
            raise SimplexError("unbounded linear program")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        best = np.min(ratios)
        # Bland tie-break: leaving row with the smallest basis index
        ties = np.nonzero(ratios <= best + _TOL * (1 + abs(best)))[0]
        r = int(min(ties, key=lambda i: basis[i]))
        piv = T[r, j]
        T[r] /= piv
        for i in range(m + 1):
            if i != r and abs(T[i, j]) > 0:
                T[i] -= T[i, j] * T[r]
        basis[r] = j
    raise SimplexError("iteration limit exceeded")


def norming_lp_value(B, phi):
    """max |sum_i a_i f_i(x)| over {a : |sum_i a_i f_i(z_j)| <= 1 for all j}.

    ``B`` is the interpolation matrix (rows = points of Z), ``phi`` the
    basis values at x. Free coefficients are split a = u - v, and both
    objective signs are tried.
    """
    B = np.asarray(B, dtype=float)
    phi = np.asarray(phi, dtype=float)
    m, l = B.shape
    A = np.block([[B, -B], [-B, B]])
    b = np.ones(2 * m)
    best = -np.inf
    for sign in (1.0, -1.0):
        c = np.concatenate([sign * phi, -sign * phi])
        value, _ = simplex_maximize(c, A, b)
        best = max(best, value)
    return best
