"""Reference dense-tableau dual simplex, used by tests only.

The dual simplex for ``min c @ x  s.t.  A_ub @ x <= b_ub, x >= 0``
(``c >= 0``) from the all-slack basis, on the full ``(m+1) x (n+m+1)``
tableau.  Run on the split form ``[A, -A]`` with costs ``[c, c]`` it takes
the same pivots as the compact `cspilot.simplex.solve_lp` on ``(c, A, b)``,
so status, pivot count and solution can be compared with ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np

from cspilot.simplex import LpResult

_BLAND_AFTER_FACTOR = 5


def _pivot(T, r, q):
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _dual_simplex(T, basis, tol, max_iter, bland_after):
    it = 0
    while True:
        rhs = T[:-1, -1]
        if it >= bland_after:
            viol = np.flatnonzero(rhs < -tol)
            if viol.size == 0:
                return "optimal", it
            r = viol[np.argmin(basis[viol])]
        else:
            r = int(np.argmin(rhs))
            if rhs[r] >= -tol:
                return "optimal", it
        if it >= max_iter:
            return "iteration-limit", it
        row = T[r, :-1]
        eligible = row < -tol
        if not eligible.any():
            return "infeasible", it
        ratios = np.where(eligible, T[-1, :-1] / np.where(eligible, -row, 1.0), np.inf)
        q = int(np.argmin(ratios))
        _pivot(T, r, q)
        basis[r] = q
        it += 1


def dense_solve(c, A_ub, b_ub, *, tol=1e-9, max_iter=None) -> LpResult:
    """Minimize ``c @ x`` s.t. ``A_ub @ x <= b_ub``, ``x >= 0`` on the dense tableau."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 50 * (n + m)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = c
    basis = np.arange(n, n + m)
    status, it = _dual_simplex(T, basis, tol, max_iter, _BLAND_AFTER_FACTOR * (n + m))
    if status != "optimal":
        return LpResult(x=None, objective=None, status=status, iterations=it)
    x = np.zeros(n + m)
    x[basis] = T[:-1, -1]
    return LpResult(x=x[:n], objective=float(c @ x[:n]), status="optimal", iterations=it)


def dense_solve_l1(c, A_ub, b_ub, **kw) -> LpResult:
    """`dense_solve` on the split form of the weighted-l1 LP; ``x`` is z = z+ - z-."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    res = dense_solve(np.concatenate([c, c]), np.hstack([A, -A]), b_ub, **kw)
    if res.x is not None:
        p = c.size
        res.x = res.x[:p] - res.x[p:]
    return res
