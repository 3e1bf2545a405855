"""Compact-tableau dual simplex for the weighted-l1 LP of the Dantzig selector.

Solves ``min sum_j c_j |z_j|  subject to  A_ub @ z <= b_ub`` with z free and
``c >= 0``, the LP the l1 embedding produces.  It is the dual simplex over
the split ``z = z+ - z-`` (``z+, z- >= 0``, constraint matrix
``[A_ub, -A_ub]``) from the all-slack basis: nonnegative costs make that
basis dual feasible, so the run reaches the optimum directly, and the
objective is bounded below by zero, so the LP is optimal or infeasible.

The tableau is stored compactly, with every kept entry computed by the
same rounded operations as on the dense ``(m+1) x (2p+m+1)`` tableau:

* each z- column is the exact negation of its z+ column after any pivot
  (negation commutes with every rounded step of a Gauss-Jordan update), so
  only the z+ columns are stored, and each z- column keeps its reduced cost;
* a slack column is the unit vector it started as until its row is a pivot
  row, so only the slack columns of rows that have been pivot rows are
  stored;
* columns are stored as rows (the tableau is transposed), so the rank-1
  update runs over one contiguous block.

The rank-1 products of that update are formed by ``np.einsum`` rather than
``np.outer``, whose broadcast multiply is about twice as slow on this
shape.  Both round each entry as one multiply; they can differ only in the
sign of an exact zero, which moves no comparison, tie-break or pivot.  The
subtraction stays a separate in-place step: a fused BLAS ``ger`` would
round product and difference once (FMA) and change the pivots.

Variables are numbered as in the split LP: z+ as 0..p-1, z- as p..2p-1
and the slack of row k as 2p+k.  Ties in the ratio test go to the smallest
number, as on the dense tableau, so the pivot sequence is the same.

Anti-cycling: after an initial phase of steepest-decrease pivots the solver
permanently switches to Bland's smallest-index rule, which cannot cycle.
Both that switch and the default iteration cap count split variables:
``5 *`` and ``50 * (2p + m)`` pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLAND_AFTER_FACTOR = 5  # switch to Bland's rule after this many times (2p+m) pivots
_TOL = 1e-9  # feasibility/optimality tolerance


@dataclass
class LpResult:
    x: np.ndarray | None
    objective: float | None
    status: str  # optimal | infeasible | iteration-limit
    iterations: int


def _dual_simplex(W, cost, basis, p, max_iter, bland_after):
    """Dual simplex on the compact tableau; returns (status, iterations).

    ``W[0]`` is the right-hand side, ``W[1:p+1]`` the z+ columns and the
    rows after them the stored slack columns, in the order their rows were
    first pivoted on.  `cost` holds the reduced costs in ratio-test order:
    z+, z-, stored slacks.  `basis` holds split-LP variable numbers.
    """
    m = W.shape[1]
    touched = np.zeros(m, dtype=bool)  # rows whose slack column is stored
    slot_row = np.empty(m, dtype=int)  # row of each stored slack column
    row_buf = np.empty(cost.size)
    rhs = W[0]
    stored = 0
    it = 0
    while True:
        if it >= bland_after:
            viol = np.flatnonzero(rhs < -_TOL)
            if viol.size == 0:
                return "optimal", it
            r = int(viol[np.argmin(basis[viol])])
        else:
            r = int(np.argmin(rhs))
            if rhs[r] >= -_TOL:
                return "optimal", it
        if it >= max_iter:
            return "iteration-limit", it
        if not touched[r]:
            # the slack column of a first-time pivot row stops being e_r
            touched[r] = True
            slot_row[stored] = r
            W[1 + p + stored, r] = 1.0
            stored += 1
        live = 1 + p + stored
        n = 2 * p + stored
        entries = W[1:live, r]
        row = row_buf[:n]
        row[:p] = entries[:p]
        np.negative(entries[:p], out=row[p : 2 * p])
        row[2 * p :] = entries[p:]
        eligible = row < -_TOL
        if not eligible.any():
            # row reads sum(nonneg terms) = negative: no feasible point
            return "infeasible", it
        reduced = cost[:n]
        ratios = np.where(eligible, reduced / np.where(eligible, -row, 1.0), np.inf)
        q = int(np.argmin(ratios))  # argmin takes the smallest position on ties
        if q >= 2 * p:
            # stored slacks sit in first-pivot order: break ties by row instead
            tied = np.flatnonzero(ratios[2 * p :] == ratios[q])
            q = 2 * p + int(tied[np.argmin(slot_row[tied])])
        # Gauss-Jordan step on the stored entries, the pivot row first
        pivot = row[q]
        W[:live, r] /= pivot
        row /= pivot
        w = 1 + q if q < p else 1 + q - p  # W row of column q (of its mirror for z-)
        sign = -1.0 if p <= q < 2 * p else 1.0
        col = sign * W[w]
        col[r] = 0.0
        W[:live] -= np.einsum("i,j->ij", W[:live, r], col)
        reduced -= reduced[q] * row
        reduced[q] = 0.0
        W[w] = 0.0
        W[w, r] = sign
        basis[r] = q if q < 2 * p else 2 * p + slot_row[q - 2 * p]
        it += 1


def solve_lp(c, A_ub, b_ub, *, max_iter: int | None = None) -> LpResult:
    """Minimize ``sum_j c_j |z_j|`` subject to ``A_ub @ z <= b_ub``, z free.

    Parameters
    ----------
    c, A_ub, b_ub : array_like
        Dense, finite problem data; `A_ub` is 2-D with shape (m, p) and
        every weight in `c` must be nonnegative.
    max_iter : int, optional
        Pivot cap; defaults to ``50 * (2p + m)``.

    Returns
    -------
    LpResult
        ``x`` holds the p free variables z when status is ``optimal``,
        otherwise None; ``iterations`` counts pivots.

    Raises
    ------
    ValueError
        On inconsistent dimensions, a non-finite entry, or a negative weight.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if A.ndim != 2:
        raise ValueError("A_ub must be 2-D")
    m, p = A.shape
    if c.shape != (p,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative")
    if max_iter is None:
        max_iter = 50 * (2 * p + m)
    bland_after = _BLAND_AFTER_FACTOR * (2 * p + m)

    W = np.zeros((1 + p + m, m))
    W[0] = b
    W[1 : p + 1] = A.T
    cost = np.zeros(2 * p + m)
    cost[:p] = c
    cost[p : 2 * p] = c
    basis = np.arange(2 * p, 2 * p + m)
    status, it = _dual_simplex(W, cost, basis, p, max_iter, bland_after)
    if status != "optimal":
        return LpResult(x=None, objective=None, status=status, iterations=it)
    x = np.zeros(2 * p + m)
    x[basis] = W[0]
    z = x[:p] - x[p : 2 * p]
    return LpResult(x=z, objective=float(c @ np.abs(z)), status="optimal", iterations=it)
