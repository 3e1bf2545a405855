"""Factored compact-tableau dual simplex for the weighted-l1 LP of the Dantzig selector.

Solves ``min sum_j c_j |z_j|  subject to  U @ (V @ z) <= b_ub`` with z free
and ``c >= 0``, the LP the l1 embedding produces.  The constraint matrix
``A = U V`` comes as an m x r and an r x p factor; the Dantzig LP has rank
r = 2M, far below its p = 2D columns.  It is the dual simplex over the
split ``z = z+ - z-`` (``z+, z- >= 0``, constraint matrix ``[A, -A]``)
from the all-slack basis: nonnegative costs make that basis dual feasible,
so the run reaches the optimum directly, and the objective is bounded
below by zero, so the LP is optimal or infeasible.

The tableau ``B^-1 [b | A | -A | I]`` is stored compactly, transposed so
the rank-1 update runs over one contiguous block, as
``W = [rhs; (B^-1 U)^T; stored slack columns]``:

* the z+ columns ``(B^-1 U) V`` are not stored: a pivot row's z+ part is
  ``W[1:1+r, row] @ V`` and an entering z+ column j is
  ``V[:, j] @ W[1:1+r]``, so a pivot updates r rows for them, not p;
* each z- column is the exact negation of its z+ column (negation commutes
  with every rounded step of a Gauss-Jordan update);
* a basic structural column is a unit vector, so its pivot-row entry is
  set exactly: 0, or +-1 when it is the leaving variable;
* a slack column is the unit vector it started as until its row is a pivot
  row, and only then is it stored.

With the identity factor ``V = I_p`` (general callers pass
``(A, np.eye(p))``) every product above picks one entry exactly, so the
solver performs the same rounded operations as on the dense
``(m+1) x (2p+m+1)`` tableau.  With the Dantzig factors the entries agree
with the dense tableau's to rounding.

The rank-1 products of the update are formed by ``np.einsum`` rather than
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


def _dual_simplex(W, V, cost, basis, max_iter, bland_after):
    """Dual simplex on the factored compact tableau; returns (status, iterations).

    ``W[0]`` is the right-hand side, ``W[1:rank+1]`` holds ``(B^-1 U)^T`` and
    the rows after them the stored slack columns, in the order their rows
    were first pivoted on.  `cost` holds the reduced costs in ratio-test
    order: z+, z-, stored slacks.  `basis` holds split-LP variable numbers.
    """
    rank, p = V.shape
    m = W.shape[1]
    touched = np.zeros(m, dtype=bool)  # rows whose slack column is stored
    slot_row = np.empty(m, dtype=int)  # row of each stored slack column
    basic = np.zeros(p, dtype=bool)  # structurals in the basis, by z+ number
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
            W[1 + rank + stored, r] = 1.0
            stored += 1
        live = 1 + rank + stored
        n = 2 * p + stored
        row = row_buf[:n]
        np.matmul(W[1 : 1 + rank, r], V, out=row[:p])
        # basic structural columns are unit vectors: their entries are exact
        np.putmask(row[:p], basic, 0.0)
        leaving = basis[r]
        if leaving < 2 * p:
            row[leaving % p] = 1.0 if leaving < p else -1.0
            basic[leaving % p] = False
        np.negative(row[:p], out=row[p : 2 * p])
        row[2 * p :] = W[1 + rank : live, r]
        eligible = np.flatnonzero(row < -_TOL)
        if eligible.size == 0:
            # row reads sum(nonneg terms) = negative: no feasible point
            return "infeasible", it
        reduced = cost[:n]
        ratios = reduced[eligible] / -row[eligible]
        best = ratios.argmin()  # argmin takes the smallest position on ties
        q = int(eligible[best])
        if q >= 2 * p:
            # stored slacks sit in first-pivot order: break ties by row instead
            tied = eligible[ratios == ratios[best]] - 2 * p
            q = 2 * p + int(tied[np.argmin(slot_row[tied])])
            col = W[1 + rank + q - 2 * p].copy()
        else:
            # the entering column B^-1 U V[:, j], negated for z-
            col = V[:, q % p] @ W[1 : 1 + rank]
            if q >= p:
                np.negative(col, out=col)
            basic[q % p] = True
        # Gauss-Jordan step on the stored entries, the pivot row first
        pivot = row[q]
        W[:live, r] /= pivot
        row /= pivot
        col[r] = 0.0
        W[:live] -= np.einsum("i,j->ij", W[:live, r], col)
        reduced -= reduced[q] * row
        reduced[q] = 0.0
        basis[r] = q if q < 2 * p else 2 * p + slot_row[q - 2 * p]
        it += 1


def solve_lp(c, U, V, b_ub, *, max_iter: int | None = None) -> LpResult:
    """Minimize ``sum_j c_j |z_j|`` subject to ``U @ (V @ z) <= b_ub``, z free.

    Parameters
    ----------
    c, U, V, b_ub : array_like
        Dense, finite problem data; the constraint matrix is the product of
        `U`, 2-D with shape (m, r), and `V`, 2-D with shape (r, p).  Every
        weight in `c` must be nonnegative.  A constraint matrix ``A_ub`` with
        no low-rank form is passed as ``(A_ub, np.eye(p))``.
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
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if U.ndim != 2 or V.ndim != 2:
        raise ValueError("U and V must be 2-D")
    m, rank = U.shape
    p = V.shape[1]
    if V.shape[0] != rank or c.shape != (p,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not all(np.isfinite(v).all() for v in (c, U, V, b)):
        raise ValueError("LP data must be finite")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative")
    if max_iter is None:
        max_iter = 50 * (2 * p + m)
    bland_after = _BLAND_AFTER_FACTOR * (2 * p + m)

    W = np.zeros((1 + rank + m, m))
    W[0] = b
    W[1 : rank + 1] = U.T
    cost = np.zeros(2 * p + m)
    cost[:p] = c
    cost[p : 2 * p] = c
    basis = np.arange(2 * p, 2 * p + m)
    status, it = _dual_simplex(W, V, cost, basis, max_iter, bland_after)
    if status != "optimal":
        return LpResult(x=None, objective=None, status=status, iterations=it)
    x = np.zeros(2 * p + m)
    x[basis] = W[0]
    z = x[:p] - x[p : 2 * p]
    return LpResult(x=z, objective=float(c @ np.abs(z)), status="optimal", iterations=it)
