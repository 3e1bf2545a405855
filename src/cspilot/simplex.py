"""Dense tableau dual simplex for the nonnegative-cost LPs of the Dantzig selector.

Solves ``min c @ x  subject to  A_ub @ x <= b_ub, x >= 0`` with ``c >= 0``,
the only shape the l1-minimization embedding produces.  Nonnegative costs
make the all-slack basis dual feasible, so a dual simplex run starting
from it reaches the optimum directly, and the objective is bounded below
by zero, so the LP is either optimal or infeasible.

Anti-cycling: after an initial phase of steepest-decrease pivots the solver
permanently switches to Bland's smallest-index rule, which cannot cycle.
The iteration cap defaults to ``50 *`` the total variable count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLAND_AFTER_FACTOR = 5  # switch to Bland's rule after this many times (m+n) pivots


@dataclass
class LpResult:
    x: np.ndarray | None
    objective: float | None
    status: str  # optimal | infeasible | iteration-limit
    iterations: int


def _pivot(T: np.ndarray, r: int, q: int) -> None:
    # Gauss-Jordan step on the full tableau (cost row included as last row).
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _dual_simplex(T, basis, tol, max_iter, bland_after):
    """Dual simplex on a dual-feasible tableau; returns (status, iterations)."""
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
            # row reads sum(nonneg terms) = negative: no feasible point
            return "infeasible", it
        ratios = np.where(eligible, T[-1, :-1] / np.where(eligible, -row, 1.0), np.inf)
        q = int(np.argmin(ratios))  # argmin takes the smallest index on ties
        _pivot(T, r, q)
        basis[r] = q
        it += 1


def solve_lp(c, A_ub, b_ub, *, tol: float = 1e-9, max_iter: int | None = None) -> LpResult:
    """Minimize ``c @ x`` subject to ``A_ub @ x <= b_ub`` and ``x >= 0``.

    Parameters
    ----------
    c, A_ub, b_ub : array_like
        Dense, finite problem data; `A_ub` has shape (m, n) and every cost
        in `c` must be nonnegative.
    tol : float
        Feasibility/optimality tolerance.
    max_iter : int, optional
        Pivot cap; defaults to ``50 * (n + m)``.

    Returns
    -------
    LpResult
        ``x`` holds the n structural variables when status is ``optimal``,
        otherwise None.

    Raises
    ------
    ValueError
        On inconsistent dimensions, a non-finite entry, or a negative cost.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative")
    if max_iter is None:
        max_iter = 50 * (n + m)
    bland_after = _BLAND_AFTER_FACTOR * (n + m)

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = c
    basis = np.arange(n, n + m)
    status, it = _dual_simplex(T, basis, tol, max_iter, bland_after)
    if status != "optimal":
        return LpResult(x=None, objective=None, status=status, iterations=it)
    x = np.zeros(n + m)
    x[basis] = T[:-1, -1]
    xs = x[:n]
    return LpResult(x=xs, objective=float(c @ xs), status="optimal", iterations=it)
