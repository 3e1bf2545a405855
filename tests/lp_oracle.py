"""Reference dense-tableau dual simplex on range rows, and the solver's kernel on general LPs; tests only.

`dense_solve` is the dual simplex for ``min c @ x  s.t.  lo <= A_ub @ x <= hi,
x >= 0`` (``c >= 0``, an entry of `lo` may be -inf) from the all-slack basis,
on the full ``(m+1) x (n+m+1)`` tableau.  Row k has one slack
``s_k = hi_k - (A x)_k`` in ``[0, hi_k - lo_k]``; a basic slack above that
range is replaced by its twin ``hi_k - lo_k - s_k`` by negating its row.
The leaving row maximizes ``viol^2 / w`` (dual steepest edge), with
``viol = min(x, room - x)`` below -tol and w the squared norm of the row of
``B^-1``, summed over the slack columns of the rows pivoted on so far in
first-pivot order, plus 1 for a row not pivoted on yet; after
``5 * (n + m)`` pivots Bland's rule takes over.

`cspilot.simplex.solve_lp` poses only the Dantzig selector's LP: unit
weights, the constraint matrix ``V^T V`` and the rows ``v -+ t``.
`compact_solve_l1` poses the weighted-l1 LP ``min c @ |z|`` s.t.
``lo <= A z <= hi`` for the same kernel, `simplex._dual_simplex`, with the
identity factor ``(A^T, I)``, under which the kernel's arithmetic is the
dense tableau's.  `dense_solve_l1` runs `dense_solve` on the split form
``[A, -A]`` with costs ``[c, c]``, so status, pivot count and solution can
be compared with ``np.array_equal``.  These general LPs reach the kernel's
one-sided rows, exact ratio-test ties, Bland's rule and a cycle under
steepest-edge pricing, which small Dantzig-form LPs were not found to reach.
"""

from __future__ import annotations

import numpy as np

from cspilot import simplex
from cspilot.simplex import LpResult

_BLAND_AFTER_FACTOR = 5
_MAX_ITER_FACTOR = 50


def _pivot(T, r, q):
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _dual_simplex(T, basis, room, tol, max_iter, bland_after):
    m = T.shape[0] - 1
    n = T.shape[1] - 1 - m
    upper = room.copy()  # upper bound of each row's basic variable
    order = []  # rows in the order they were first pivoted on
    it = 0
    while True:
        rhs = T[:-1, -1]
        viol = np.minimum(rhs, upper - rhs)
        cand = np.flatnonzero(viol < -tol)
        if cand.size == 0:
            return "optimal", it
        if it >= max_iter:
            return "iteration-limit", it
        if it >= bland_after:
            r = int(cand[np.argmin(basis[cand])])
        else:
            slacks = np.ascontiguousarray(T[:m, n + np.array(order, dtype=int)].T)
            w = np.einsum("ij,ij->j", slacks, slacks)
            w[np.setdiff1d(np.arange(m), order)] += 1.0
            score = np.zeros(m)
            score[cand] = viol[cand] ** 2 / w[cand]
            r = int(np.argmax(score))
        if rhs[r] > 0.0:
            # above its range: the twin takes the row, below 0
            x = T[r, -1]
            T[r, :-1] *= -1.0
            T[r, -1] = upper[r] - x
            T[r, basis[r]] = 1.0
        if r not in order:
            order.append(r)
        row = T[r, :-1]
        eligible = row < -tol
        if not eligible.any():
            return "infeasible", it
        ratios = np.where(eligible, T[-1, :-1] / np.where(eligible, -row, 1.0), np.inf)
        q = int(np.argmin(ratios))
        _pivot(T, r, q)
        basis[r] = q
        upper[r] = np.inf if q < n else room[q - n]
        it += 1


def dense_solve(c, A_ub, lo, hi, *, tol=1e-9) -> LpResult:
    """Minimize ``c @ x`` s.t. ``lo <= A_ub @ x <= hi``, ``x >= 0`` on the dense tableau."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m, n = A.shape
    max_iter = _MAX_ITER_FACTOR * (n + m)
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = hi
    T[-1, :n] = c
    basis = np.arange(n, n + m)
    status, it = _dual_simplex(T, basis, hi - lo, tol, max_iter, _BLAND_AFTER_FACTOR * (n + m))
    if status != "optimal":
        return LpResult(x=None, status=status, iterations=it)
    x = np.zeros(n + m)
    x[basis] = T[:-1, -1]
    return LpResult(x=x[:n], status="optimal", iterations=it)


def dense_solve_l1(c, A_ub, lo, hi, **kw) -> LpResult:
    """`dense_solve` on the split form of the weighted-l1 LP; ``x`` is z = z+ - z-."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    res = dense_solve(np.concatenate([c, c]), np.hstack([A, -A]), lo, hi, **kw)
    if res.x is not None:
        p = c.size
        res.x = res.x[:p] - res.x[p:]
    return res


def compact_solve_l1(c, A, lo, hi) -> LpResult:
    """The solver's kernel on ``min c @ |z|`` s.t. ``lo <= A @ z <= hi``, z free, as ``A @ I``."""
    c, A, lo, hi = (np.asarray(a, dtype=float) for a in (c, A, lo, hi))
    m, p = A.shape
    W = np.zeros((1 + p + m, m))
    W[0], W[1 : p + 1] = hi, A.T
    cost = np.zeros(2 * p + m)
    cost[:p] = cost[p : 2 * p] = c
    basis = np.arange(2 * p, 2 * p + m)
    n = 2 * p + m
    with np.errstate(divide="ignore", invalid="ignore"):
        status, it = simplex._dual_simplex(
            W, np.eye(p), cost, hi - lo, basis,
            simplex._MAX_ITER_FACTOR * n, simplex._BLAND_AFTER_FACTOR * n,
        )
    if status != "optimal":
        return LpResult(x=None, status=status, iterations=it)
    x = np.zeros(n)
    x[basis] = W[0]
    return LpResult(x=x[:p] - x[p : 2 * p], status="optimal", iterations=it)
