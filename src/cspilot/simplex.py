"""Range-row dual simplex with steepest-edge pricing for the Dantzig selector's LP.

Solves ``min ||z||_1  subject to  |V^T (V z) - v| <= t`` entrywise, z
free: the real Dantzig selector, with V the 2M x 2D real form of the
sensing matrix, v that of the correlation ``X^H y`` and ``t = eps /
sqrt(2)``.  The constraint matrix ``A = V^T V`` is p x p (p = 2D) with
rank r = 2M, far below p; each of its rows k is a range row
``v_k - t <= (A z)_k <= v_k + t`` with one slack ``s_k = v_k + t - (A z)_k``
in ``[0, 2t]``.

The solver is the dual simplex over the split ``z = z+ - z-``
(``z+, z- >= 0``) from the all-slack basis ``z = 0, s = v + t``: unit
costs make that basis dual feasible, so the run reaches the optimum
directly, and the objective is bounded below by zero, so the LP is optimal
or infeasible.  A basic slack above 2t is replaced by its twin
``2t - s_k``, which then lies below 0: the tableau row is negated and its
right-hand side becomes ``2t - rhs``.  Every nonbasic variable thus sits at
0, a leaving variable leaves at 0 and the ratio test is the textbook one.
The twin's column is the slack's negated and takes its place in the store.

Pricing is dual steepest edge (Forrest and Goldfarb 1992): with ``x`` the
basic values and ``room`` their upper bounds (inf for z+ and z-), the
leaving row maximizes ``viol_r^2 / w_r`` over the rows with
``viol_r = min(x_r, room_r - x_r) < -tol``, where ``w_r`` is the squared
norm of row r of ``B^-1``.  The columns of ``B^-1`` are, up to sign, the
slack columns of the tableau, so ``w`` is read exactly from the stored
slack columns, plus 1 for each row never pivoted on.

The tableau is stored compactly, transposed so the rank-1 update runs over
one contiguous block, as ``W = [rhs; (B^-1 V^T)^T; stored slack columns]``:

* the z+ columns ``(B^-1 V^T) V`` are not stored: a pivot row's z+ part is
  ``W[1:1+r, row] @ V`` and an entering z+ column j is
  ``V[:, j] @ W[1:1+r]``, so a pivot updates r rows for them, not p;
* each z- column is the exact negation of its z+ column (negation commutes
  with every rounded step of a Gauss-Jordan update);
* a basic structural column is a unit vector, so its pivot-row entry is
  set exactly: 0, or +-1 when it is the leaving variable;
* a slack column is its unit vector until its row is a pivot row, and
  only then is it stored.

The stored entries agree with the dense ``(p+1) x (3p+1)`` tableau's to
rounding.  The update's rank-1 products are formed by ``np.einsum``, about
twice as fast as ``np.outer`` here, and subtracted in place.

Variables are numbered z+ as 0..p-1, z- as p..2p-1 and the slack of row k
(or its twin) as 2p+k.  Ties in pricing go to the smallest row and ties in
the ratio test to the smallest number.  After ``5 * 3p`` pivots the solver
switches for good to Bland's rule, which cannot cycle: the leaving row is
the violated row whose basic variable has the smallest number, and the
entering variable the smallest number among the ratio-test ties.  After
``50 * 3p`` pivots it stops with status ``iteration-limit``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _as_finite, _as_real

_BLAND_AFTER_FACTOR = 5  # switch to Bland's rule after this many times 3p pivots
_MAX_ITER_FACTOR = 50  # stop after this many times 3p pivots
_TOL = 1e-9  # feasibility/optimality tolerance


@dataclass
class LpResult:
    x: np.ndarray | None
    status: str  # optimal | infeasible | iteration-limit
    iterations: int


def _dual_simplex(W, V, cost, room, basis, max_iter, bland_after):
    """Dual simplex on the factored compact tableau; returns (status, iterations).

    The constraint matrix is ``V^T V``.  ``W[0]`` is the right-hand side,
    ``W[1:rank+1]`` holds ``(B^-1 V^T)^T`` and the rows after them the
    stored slack columns, in the order their rows were first pivoted on.
    `cost` holds the reduced costs in ratio-test order: z+, z-, stored
    slacks.  `room` holds each row's slack range and `basis` split-LP
    variable numbers.
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
    BVt = W[1 : 1 + rank]  # (B^-1 V^T)^T
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
        np.matmul(BVt[:, r], V, out=plus)
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
            # the entering column B^-1 V^T V[:, j], negated for z-
            col = VT[q % p] @ BVt
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


def solve_lp(v, V, t) -> LpResult:
    """Minimize ``||z||_1`` subject to ``|V^T (V z) - v| <= t`` entrywise, z free.

    `V` is 2-D, `v` holds one entry per column of `V` and `t` is a scalar,
    all finite real numbers with ``t >= 0``; anything else raises
    ``ValueError``.  The result's ``x`` holds z when its status is
    ``optimal`` and is None otherwise; ``iterations`` counts pivots.
    """
    V = _as_finite(V, "V", kinds="iuf", ndim=2).astype(float, copy=False)
    v = _as_finite(v, "v", kinds="iuf").astype(float, copy=False)
    rank, p = V.shape
    if v.shape != (p,):
        raise ValueError(f"v has shape {v.shape}, need ({p},) for V of shape {V.shape}")
    if _as_real(t, "t") < 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")

    W = np.zeros((1 + rank + p, p))
    W[0] = v + t
    W[1 : rank + 1] = V
    cost = np.zeros(3 * p)
    cost[: 2 * p] = 1.0
    basis = np.arange(2 * p, 3 * p)
    room = np.full(p, 2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the ratio test divides by every pivot-row entry, zeros included,
        # and masks the ineligible quotients
        status, it = _dual_simplex(
            W, V, cost, room, basis, _MAX_ITER_FACTOR * 3 * p, _BLAND_AFTER_FACTOR * 3 * p
        )
    if status != "optimal":
        return LpResult(x=None, status=status, iterations=it)
    x = np.zeros(3 * p)
    x[basis] = W[0]
    return LpResult(x=x[:p] - x[p : 2 * p], status="optimal", iterations=it)
