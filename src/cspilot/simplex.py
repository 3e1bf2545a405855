"""Range-row dual simplex with steepest-edge pricing for the Dantzig selector's weighted-l1 LP.

Solves ``min sum_j c_j |z_j|  subject to  lo <= U @ (V @ z) <= hi`` with z
free and ``c >= 0``, the LP the l1 embedding produces.  The constraint
matrix ``A = U V`` comes as an m x r and an r x p factor; for the Dantzig
LP ``U = V^T``, m = p = 2D and the rank r = 2M is far below both.  An
entry of `lo` may be -inf, which makes its row one-sided.

Each row k has one slack ``s_k = hi_k - (A z)_k`` bounded by
``0 <= s_k <= hi_k - lo_k``.  The solver is the dual simplex over the split
``z = z+ - z-`` (``z+, z- >= 0``) from the all-slack basis ``z = 0,
s = hi``: nonnegative costs make that basis dual feasible, so the run
reaches the optimum directly, and the objective is bounded below by zero,
so the LP is optimal or infeasible.

A basic slack above its upper bound is replaced by its twin
``s'_k = (hi_k - lo_k) - s_k``, which then lies below its lower bound 0:
the tableau row is negated and its right-hand side becomes
``hi_k - lo_k - rhs``.  Every nonbasic variable thus sits at its lower
bound 0, a leaving variable leaves at 0 and the ratio test is the
textbook one.  The twin's column is the slack's negated, so it takes the
slack's place in the store below.

Pricing is dual steepest edge (Forrest and Goldfarb 1992).  With
``x`` the basic values and ``room`` their upper bounds (inf for z+ and
z-), the leaving row maximizes ``viol_r^2 / w_r`` over the rows with
``viol_r = min(x_r, room_r - x_r) < -tol``, where ``w_r`` is the squared
norm of row r of ``B^-1``.  The columns of ``B^-1`` are the slack columns
of the tableau, up to sign, so ``w`` is read exactly from the stored slack
columns, plus 1 for each row never pivoted on, whose slack column is still
its unit vector; no update formula carries it from pivot to pivot.

The tableau is stored compactly, transposed so the rank-1 update runs over
one contiguous block, as ``W = [rhs; (B^-1 U)^T; stored slack columns]``:

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
``(c, A, np.eye(p), np.full(m, -np.inf), b)`` for ``A z <= b``) every
product above picks one entry exactly, so the stored entries are those of
the dense ``(m+1) x (2p+m+1)`` tableau; with the Dantzig factors they agree
with it to rounding.  The rank-1 products of the update are formed by
``np.einsum``, about twice as fast as ``np.outer`` on this shape, and
subtracted in place.

Variables are numbered as in the split LP: z+ as 0..p-1, z- as p..2p-1
and the slack of row k (or its twin) as 2p+k.  Ties in pricing go to the
smallest row and ties in the ratio test to the smallest number.

Anti-cycling: after ``5 * (2p + m)`` pivots the solver permanently
switches to Bland's rule, which cannot cycle: the leaving row is the
violated row whose basic variable has the smallest number, and the
entering variable the smallest number among the ratio-test ties.  The
default iteration cap is ``50 * (2p + m)`` pivots, m counting range rows.
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


def _dual_simplex(W, V, cost, room, basis, max_iter, bland_after):
    """Dual simplex on the factored compact tableau; returns (status, iterations).

    ``W[0]`` is the right-hand side, ``W[1:rank+1]`` holds ``(B^-1 U)^T`` and
    the rows after them the stored slack columns, in the order their rows
    were first pivoted on.  `cost` holds the reduced costs in ratio-test
    order: z+, z-, stored slacks.  `room` holds each row's slack range and
    `basis` split-LP variable numbers.
    """
    rank, p = V.shape
    m = W.shape[1]
    touched = np.zeros(m, dtype=bool)  # rows whose slack column is stored
    slot_row = np.empty(m, dtype=int)  # row of each stored slack column
    slot_of = np.empty(m, dtype=int)  # stored slot of each touched row's slack
    basic = np.zeros(p, dtype=bool)  # structurals in the basis, by z+ number
    upper = room.copy()  # upper bound of each row's basic variable
    unit = np.ones(m)  # 1 for rows whose slack column is still e_r
    score = np.empty(m)
    w = np.empty(m)
    row_buf = np.empty(cost.size)
    ratio_buf = np.empty(cost.size)
    outer_buf = np.empty_like(W)  # the rank-1 update's products
    rhs = W[0]
    BU = W[1 : 1 + rank]  # (B^-1 U)^T
    VT = np.ascontiguousarray(V.T)  # V's columns, contiguous
    plus, minus = row_buf[:p], row_buf[p : 2 * p]
    # views over the stored slack columns, renewed each time a slack is stored
    stored, live, n = 0, 1 + rank, 2 * p
    slacks, block, outer = W[1 + rank : live], W[:live], outer_buf[:live]
    row, ratio, reduced = row_buf[:n], ratio_buf[:n], cost[:n]
    it = 0
    while True:
        np.subtract(upper, rhs, out=score)
        np.minimum(rhs, score, out=score)
        if it >= bland_after:
            cand = np.flatnonzero(score < -_TOL)
            if cand.size == 0:
                return "optimal", it
            r = int(cand[np.argmin(basis[cand])])
        else:
            # dual steepest edge: viol^2 / w, w = squared row norms of B^-1
            np.putmask(score, score >= -_TOL, 0.0)
            score *= score
            np.einsum("ij,ij->j", slacks, slacks, out=w)
            w += unit
            score /= w
            r = int(score.argmax())
            if score[r] == 0.0:
                return "optimal", it
        if it >= max_iter:
            return "iteration-limit", it
        if rhs[r] > 0.0:
            # above its upper bound: pivot on the twin, below 0
            k = basis[r] - 2 * p
            W[1:live, r] *= -1.0
            rhs[r] = upper[r] - rhs[r]
            if touched[k]:
                slacks[slot_of[k], r] = 1.0
        if not touched[r]:
            # the slack column of a first-time pivot row stops being e_r
            touched[r] = True
            unit[r] = 0.0
            slot_row[stored] = r
            slot_of[r] = stored
            W[live, r] = 1.0
            stored, live, n = stored + 1, live + 1, n + 1
            slacks, block, outer = W[1 + rank : live], W[:live], outer_buf[:live]
            row, ratio, reduced = row_buf[:n], ratio_buf[:n], cost[:n]
        np.matmul(BU[:, r], V, out=plus)
        # basic structural columns are unit vectors: their entries are exact
        np.putmask(plus, basic, 0.0)
        leaving = basis[r]
        if leaving < 2 * p:
            plus[leaving % p] = 1.0 if leaving < p else -1.0
            basic[leaving % p] = False
        np.negative(plus, out=minus)
        row[2 * p :] = slacks[:, r]
        # ratio test as reduced / row over the entries below -tol: the
        # largest (nearest 0) is the smallest ratio reduced / -row
        np.divide(reduced, row, out=ratio)
        np.putmask(ratio, row >= -_TOL, -np.inf)
        q = int(ratio.argmax())  # argmax takes the smallest position on ties
        if ratio[q] == -np.inf:
            # row reads sum(nonneg terms) = negative: no feasible point
            return "infeasible", it
        if q >= 2 * p:
            # stored slacks sit in first-pivot order: break ties by row instead
            tied = np.flatnonzero(ratio[2 * p :] == ratio[q])
            q = 2 * p + int(tied[np.argmin(slot_row[tied])])
            col = slacks[q - 2 * p].copy()
            k = slot_row[q - 2 * p]
            basis[r] = 2 * p + k
            upper[r] = room[k]
        else:
            # the entering column B^-1 U V[:, j], negated for z-
            col = VT[q % p] @ BU
            if q >= p:
                np.negative(col, out=col)
            basic[q % p] = True
            basis[r] = q
            upper[r] = np.inf
        # Gauss-Jordan step on the stored entries, the pivot row first
        pivot = row[q]
        block[:, r] /= pivot
        row /= pivot
        col[r] = 0.0
        block -= np.einsum("i,j->ij", block[:, r], col, out=outer)
        reduced -= reduced[q] * row
        reduced[q] = 0.0
        it += 1


def solve_lp(c, U, V, lo, hi, *, max_iter: int | None = None) -> LpResult:
    """Minimize ``sum_j c_j |z_j|`` subject to ``lo <= U @ (V @ z) <= hi``, z free.

    Parameters
    ----------
    c, U, V, lo, hi : array_like
        Dense problem data; the constraint matrix is the product of `U`,
        2-D with shape (m, r), and `V`, 2-D with shape (r, p).  Every
        weight in `c` must be nonnegative.  `c`, `U`, `V` and `hi` must be
        finite; an entry of `lo` is finite and at most `hi`'s, or -inf for a
        one-sided row.  Constraints ``A_ub @ z <= b_ub`` with no low-rank
        form are passed as ``(c, A_ub, np.eye(p), np.full(m, -np.inf), b_ub)``.
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
        On inconsistent dimensions, a non-finite entry other than a -inf in
        `lo`, a row with ``lo > hi``, or a negative weight.
    """
    c = np.asarray(c, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if U.ndim != 2 or V.ndim != 2:
        raise ValueError("U and V must be 2-D")
    m, rank = U.shape
    p = V.shape[1]
    if V.shape[0] != rank or c.shape != (p,) or lo.shape != (m,) or hi.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if not all(np.isfinite(v).all() for v in (c, U, V, hi)):
        raise ValueError("LP data must be finite")
    if not (np.isfinite(lo) | (lo == -np.inf)).all():
        raise ValueError("lower bounds must be finite or -inf")
    if (lo > hi).any():
        raise ValueError("lower bounds must not exceed upper bounds")
    if (c < 0).any():
        raise ValueError("costs must be nonnegative")
    if max_iter is None:
        max_iter = 50 * (2 * p + m)
    bland_after = _BLAND_AFTER_FACTOR * (2 * p + m)

    W = np.zeros((1 + rank + m, m))
    W[0] = hi
    W[1 : rank + 1] = U.T
    cost = np.zeros(2 * p + m)
    cost[:p] = c
    cost[p : 2 * p] = c
    basis = np.arange(2 * p, 2 * p + m)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the ratio test divides by every pivot-row entry, zeros included,
        # and masks the ineligible quotients
        status, it = _dual_simplex(W, V, cost, hi - lo, basis, max_iter, bland_after)
    if status != "optimal":
        return LpResult(x=None, objective=None, status=status, iterations=it)
    x = np.zeros(2 * p + m)
    x[basis] = W[0]
    z = x[:p] - x[p : 2 * p]
    return LpResult(x=z, objective=float(c @ np.abs(z)), status="optimal", iterations=it)
