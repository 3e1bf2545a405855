"""Sparse channel estimation from pilot measurements.

Three estimators over the unit-energy pilot model ``y = X h + z``:

* `dantzig_recover` — l1 minimization subject to an sup-norm bound on the
  correlated residual ``X^H (y - X h)``, solved as a real linear program,
  followed by a least-squares debias stage;
* `omp_recover` — greedy correlation matching, used as an independent
  cross-validation oracle;
* `fde_ls_recover` — the dense least-squares baseline that spends one pilot
  tone per coherence band (tap_count tones in total).

Each estimator reads the pilot count M and the tap count D from the shape
of the sensing matrix, ``X.rows.shape == (M, D)``, and from nothing else.
The Dantzig selector's one further input is the per-tone noise variance:
it fixes the constraint level, the debias candidate floor and the stepwise
threshold, with ``noise_variance == 0`` meaning a noiseless measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import OfdmParams, SensingMatrix, _as_count, _as_finite, _as_real
from .simplex import solve_lp

NMSE_FLOOR_DB = -200.0
CANDIDATE_CAP = 12  # debias candidates kept, the largest raw taps first
SELECTION_TAU = 10.0  # stepwise significance level, in units of the noise variance
NOISELESS_EPSILON = 1e-6  # constraint level at noise variance 0
MAGNITUDE_FLOOR = 0.01  # smallest raw tap magnitude kept as a candidate under noise
_EPS = np.finfo(float).eps


@dataclass
class RecoveryResult:
    """Channel estimate plus solver diagnostics.

    ``raw_estimate`` keeps the program solution and ``raw_support`` its
    thresholded support before the candidate cap (empty when the solve
    failed), so callers can score both stages from one solve;
    ``lp_iterations`` is the pivot count of that solve and
    ``debias_passes`` the number of stepwise debias passes run (0 when the
    solve failed); all four are None for estimators without an LP.
    """

    estimate: np.ndarray
    recovered_support: np.ndarray
    solver_status: str
    raw_estimate: np.ndarray | None = None
    raw_support: np.ndarray | None = None
    lp_iterations: int | None = None
    debias_passes: int | None = None


def dantzig_epsilon(noise_variance: float, X: SensingMatrix) -> float:
    """Constraint level of the l1 program for an M x D matrix `X`.

    `NOISELESS_EPSILON` when ``noise_variance == 0``; otherwise
    ``sigma * sqrt(M) * sqrt(2 * ln(D))`` with sigma^2 = `noise_variance`,
    the deviation of one entry of the correlated noise ``X^H z`` times the
    Gaussian sup-norm factor over the taps.  Raises ``ValueError`` for a
    non-finite or negative `noise_variance`.
    """
    if _as_real(noise_variance, "noise_variance") < 0:
        raise ValueError(f"noise_variance must be finite and nonnegative, got {noise_variance!r}")
    if noise_variance == 0:
        return NOISELESS_EPSILON
    m, d = X.rows.shape
    return float(np.sqrt(noise_variance) * np.sqrt(m) * np.sqrt(2.0 * np.log(d)))


def _lp_factors(X: SensingMatrix) -> np.ndarray:
    """The LP's factor ``V = [[Re X, -Im X], [Im X, Re X]]``, read-only.

    V is the real form of X, so ``V^T V = [[R, -Im], [Im, R]]`` is that of
    ``X^H X = R + j Im``.
    """
    m, d = X.rows.shape
    V = np.empty((2 * m, 2 * d))
    V[:m, :d] = X.rows.real
    np.negative(X.rows.imag, out=V[:m, d:])
    V[m:, :d] = X.rows.imag
    V[m:, d:] = X.rows.real
    V.flags.writeable = False
    return V


def _embed_lp(y, X: SensingMatrix, eps: float):
    # Real form (v, V, t) of min ||h||_1 s.t. ||X^H(y - X h)||_inf <= eps
    # over z = [Re h, Im h]: per-entry bounds t = eps/sqrt(2) on the real
    # and imaginary parts of the correlated residual v - V^T V z.  The
    # factor V depends on the tones only, so X keeps it.
    V = X.cached("lp_factors", _lp_factors)
    v = X.rows.conj().T @ y
    return np.concatenate([v.real, v.imag]), V, eps / np.sqrt(2.0)


def threshold_support(estimate: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Indices whose magnitude clears ``max(floor, 0.01 * largest)``.

    Raises ValueError for a non-finite or negative `floor`, for an
    `estimate` that is not 1-D and for an entry of `estimate` that is not a
    finite number, which no threshold can rank.
    """
    if _as_real(floor, "floor") < 0:
        raise ValueError("floor must be finite and non-negative")
    return np.flatnonzero(_above(np.abs(_as_finite(estimate, "estimate", ndim=1)), floor))


def _above(mags: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the entries of each row of `mags` above ``max(floor, 0.01 * its largest)``.

    An all-zero row keeps nothing, since `floor` is nonnegative.
    """
    top = mags.max(axis=-1, keepdims=True, initial=0.0)
    return mags > np.maximum(floor, 0.01 * top)


def _check_measurement(y, X: SensingMatrix) -> np.ndarray:
    """`y` as an array of one finite number per row of `X`; else ``ValueError``."""
    if np.shape(y) != X.rows.shape[:1]:
        raise ValueError(
            f"measurement has shape {np.shape(y)}, need ({X.rows.shape[0]},) "
            "for the sensing matrix"
        )
    return _as_finite(y, "measurement")


def _deflate(M, q):
    """``M <- (I - q q^H) M`` in place for a unit vector `q`; returns ``q^H M``.

    The one update for a support that grows or shrinks by a column: OMP
    deflates ``[X | y]`` by each chosen direction, the stepwise debias the
    rows of its inverse factor by each pruned one (through ``B.T``).  Over
    a stack, (..., m) vectors deflate (..., m, c) matrices, each with one
    vector-matrix call, as alone.
    """
    row = (q.conj()[..., None, :] @ M)[..., 0, :]
    M -= q[..., :, None] * row[..., None, :]
    return row


def _independent(norm, m, k, scale):
    """The `numpy.linalg.matrix_rank` rule for a diagonal entry `norm` of a factor R.

    R factors k columns of m rows; the entry, the norm of a column's part
    outside the span of the columns before it, must clear
    ``max(m, k) * eps * scale``, with `scale` the largest ``|R_ii|`` (0 for
    none).  Elementwise for an array of norms.
    """
    return norm > max(m, k) * _EPS * scale


def _stepwise_select(y, Xs, candidates, threshold):
    """Prune/extend the candidate support by residual-energy significance.

    Each pass prunes the tap whose removal raises the residual energy least
    while that rise is below `threshold`, then, under `CANDIDATE_CAP` taps,
    adds the tap most correlated with the residual when that lowers the
    residual energy by more than the same amount; passes repeat (at most
    ``4 * CANDIDATE_CAP``) until neither step changes the support.  A pass
    factors its support once, ``Xs_K = Q R``: with ``B = R^-1`` and
    ``coef = B Q^H y``, removing tap i raises the residual energy by
    ``|coef_i|^2 / ||row i of B||^2``.  A prune deflates B, coef and an
    identity P by row i's direction (`_deflate`), which leaves the
    survivors' inverse factor and fit, and in P the projector onto their
    span in the coordinates of Q; adding column a then lowers the residual
    energy by ``|u^H r|^2 / ||u||^2``, with ``r = y - Q P Q^H y`` and
    ``u = a - Q P Q^H a``.  A column in the span of the others (or beyond
    the row count) is pruned whatever the threshold, and by the same rule
    (`_independent`) a column in the span of the support is never added.
    A pass that only pruned would rerun on the survivors and change
    nothing, so it is counted, not run.  Returns the sorted support, its
    coefficients in the same order, and the passes run.
    """
    keep = list(candidates)
    m = Xs.shape[0]
    XsH = Xs.conj().T
    limit = 4 * CANDIDATE_CAP
    for passes in range(1, limit + 1):
        pruned = False
        while True:
            Q, R = np.linalg.qr(Xs[:, keep])
            diag = np.abs(R.diagonal())
            scale = diag.max(initial=0.0)
            independent = _independent(diag, m, len(keep), scale)
            if len(keep) <= m and independent.all():
                break
            dependent = np.flatnonzero(~independent)
            keep.pop(int(dependent[0]) if dependent.size else m)
            pruned = True
        QH = Q.conj().T
        qy = QH @ y
        k = len(keep)
        # B over P: a prune deflates the rows of both
        BP = np.concatenate((np.linalg.inv(R), np.eye(k)))
        B, P = BP[:k], BP[k:]
        coef = B @ qy
        rises = np.abs(coef) ** 2 / (np.abs(B) ** 2).sum(axis=1)
        for _ in range(k):
            weakest = int(rises.argmin())
            if rises[weakest] >= threshold:
                break
            row = B[weakest]
            row = row / np.vdot(row, row).real ** 0.5
            coef -= _deflate(BP.T, row)[:k] * (row @ qy)
            # the pruned row is zero and scores +inf from now on
            B[weakest], coef[weakest], keep[weakest] = 0.0, np.inf, -1
            rises = np.abs(coef) ** 2 / (np.abs(B) ** 2).sum(axis=1)
        if -1 in keep:
            kept = [p for p, index in enumerate(keep) if index >= 0]
            keep, coef, pruned = [keep[p] for p in kept], coef[kept], True
        added = False
        if len(keep) < CANDIDATE_CAP:
            QP = Q @ P
            resid = y - QP @ qy
            corr = np.abs(XsH @ resid)
            corr[keep] = 0.0
            best = int(corr.argmax())
            u = Xs[:, best] - QP @ (QH @ Xs[:, best])
            u_norm2 = np.vdot(u, u).real
            if _independent(u_norm2**0.5, m, len(keep) + 1, scale):
                added = abs(np.vdot(u, resid)) ** 2 > threshold * u_norm2
        if not added:
            passes = min(passes + pruned, limit)
            break
        keep.append(best)
    if len(keep) > coef.size:
        # the pass limit fell right after an add, past the last factor
        Q, R = np.linalg.qr(Xs[:, keep])
        coef = np.linalg.solve(R, Q.conj().T @ y)
    support = np.array(keep, dtype=int)
    order = support.argsort()
    return support[order], coef[order], passes


def dantzig_recover(y: np.ndarray, X: SensingMatrix, noise_variance: float) -> RecoveryResult:
    """Solve the l1 residual-correlation program and debias its solution.

    The constraint level is `dantzig_epsilon`.  Debias: taps whose raw
    magnitude clears ``max(floor, 0.01 * largest)`` become candidates (at
    most `CANDIDATE_CAP`, keeping the largest), with the floor
    `MAGNITUDE_FLOOR` under noise and 0 without.  The candidate set is then
    refined by stepwise least squares: a tap is pruned when removing it
    raises the residual energy by less than a threshold, and a tap is added
    back from the residual correlations when it lowers the residual energy
    by more than the same amount.  The threshold is
    ``SELECTION_TAU * noise_variance``, or with ``noise_variance == 0`` the
    rounding level ``M * eps * ||y||^2`` of an M-tone measurement y.  The
    estimate is the surviving support's least-squares fit, read off the debias.

    ``raw_estimate`` is the program solution and ``raw_support`` its
    candidates before the cap.  When the solve is not optimal,
    `solver_status` says so, both estimates hold NaN and both supports are
    empty.  Raises ``ValueError`` for a non-finite or negative
    `noise_variance`.
    """
    y = _check_measurement(y, X)
    d = X.rows.shape[1]
    eps = dantzig_epsilon(noise_variance, X)
    res = solve_lp(*_embed_lp(y, X, eps))
    if res.status != "optimal":
        # NaN entries, which nmse and threshold_support reject, so a failed
        # solve cannot be scored as an estimate
        failed = np.full(d, np.nan, dtype=complex)
        empty = np.array([], dtype=int)
        return RecoveryResult(
            estimate=failed,
            recovered_support=empty,
            solver_status=res.status,
            raw_estimate=failed,
            raw_support=empty,
            lp_iterations=res.iterations,
            debias_passes=0,
        )
    raw = res.x[:d] + 1j * res.x[d:]
    if noise_variance > 0:
        floor, threshold = MAGNITUDE_FLOOR, SELECTION_TAU * noise_variance
    else:
        # noiseless: only a tap the exact fit leaves at rounding level goes
        floor = 0.0
        threshold = y.size * np.finfo(float).eps * float(np.vdot(y, y).real)
    raw_support = threshold_support(raw, floor)
    support = raw_support
    if support.size > CANDIDATE_CAP:
        support = np.sort(support[np.argsort(np.abs(raw[support]))[-CANDIDATE_CAP:]])
    support, coef, passes = _stepwise_select(y, X.rows, support, threshold)
    estimate = np.zeros(d, dtype=complex)
    estimate[support] = coef
    return RecoveryResult(
        estimate=estimate,
        recovered_support=support,
        solver_status="optimal",
        raw_estimate=raw,
        raw_support=raw_support,
        lp_iterations=res.iterations,
        debias_passes=passes,
    )


def omp_recover(y: np.ndarray, X: SensingMatrix, sparsity: int) -> RecoveryResult:
    """Greedy correlation matching with a least-squares fit on the chosen columns.

    Runs exactly `sparsity` iterations and is deterministic given its
    inputs (argmax ties resolve to the lowest index); the work is `_omp`'s
    on a stack of one.  Raises ``ValueError`` unless ``0 <= sparsity <=
    min(M, D)``, and ``LinAlgError`` when a chosen column is numerically in
    the span of the earlier ones (`_independent`).
    """
    m, d = X.rows.shape
    if not 0 <= _as_count(sparsity, "sparsity") <= min(m, d):
        raise ValueError(
            f"sparsity must satisfy 0 <= sparsity <= min(M, D) = {min(m, d)} "
            f"for {m} measurements of {d} taps, got {sparsity!r}"
        )
    y = _check_measurement(y, X)
    estimate, selected = _omp(y[None], X.rows, sparsity)
    return RecoveryResult(
        estimate=estimate[0],
        recovered_support=np.sort(selected[0]),
        solver_status="optimal",
    )


def _omp(Y: np.ndarray, rows: np.ndarray, sparsity: int):
    """OMP on each row of the (n, M) `Y` against its (M, D) matrix in `rows`.

    `rows` is one (M, D) matrix for every trial or an (n, M, D) stack.
    Each iteration deflates each trial's ``W = [X | y]`` by the chosen
    column's part outside the earlier ones' span (`_deflate`, modified
    Gram-Schmidt), which leaves the residual in W's last column and gives
    one row of the chosen columns' triangular factor R, ending in ``Q^H y``;
    ``R coef = Q^H y`` is solved once, at the end.  A column's norm is one
    ``vdot`` on its strided view of W and every product one BLAS call per
    trial, so each trial keeps the bits of a stack of one.  Returns the
    (n, D) estimates and the (n, sparsity) columns in the order chosen;
    raises ``LinAlgError`` when any trial chooses a column numerically in
    the span of its earlier ones.
    """
    n, m = Y.shape
    d = rows.shape[-1]
    XH = rows.conj().swapaxes(-1, -2)
    W = np.empty((n, m, d + 1), dtype=complex)
    W[..., :d], W[..., d] = rows, Y
    R = np.empty((n, sparsity, d + 1), dtype=complex)
    selected = np.empty((n, sparsity), dtype=int)
    trials = np.arange(n)
    norms, scale = np.empty(n), np.zeros(n)
    for k in range(sparsity):
        corr = np.abs(XH @ W[..., d:])[..., 0]
        corr[trials[:, None], selected[:, :k]] = -1.0
        best = corr.argmax(axis=1)
        for i, b in enumerate(best):
            column = W[i, :, b]
            norms[i] = np.vdot(column, column).real ** 0.5
        if not _independent(norms, m, k + 1, scale).all():
            raise np.linalg.LinAlgError("selected sensing columns are numerically dependent")
        scale = np.maximum(scale, norms)
        R[:, k] = _deflate(W, W[trials, :, best] / norms[:, None])
        W[trials, :, best] = 0.0  # no part left outside the span, so R stays triangular
        selected[:, k] = best
    estimate = np.zeros((n, d), dtype=complex)
    if sparsity:
        triangle = np.take_along_axis(R, selected[:, None, :], axis=2)
        estimate[trials[:, None], selected] = np.linalg.solve(triangle, R[..., d:])[..., 0]
    return estimate, selected


def comb_tone_set(params: OfdmParams) -> np.ndarray:
    """One tone per coherence band: tone i is ``i * WT // tap_count``, spread over the band."""
    return np.arange(params.tap_count) * params.bandwidth_time_product // params.tap_count


def _ls_pinv(X: SensingMatrix) -> np.ndarray:
    """Pseudo-inverse of ``X`` from one SVD; ``LinAlgError`` below full column rank.

    Full rank means every singular value clears ``max(m, d) * eps *
    largest``, the `numpy.linalg.matrix_rank` rule (`_independent`).
    """
    U, s, Vh = np.linalg.svd(X.rows, full_matrices=False)
    if not _independent(s[-1], *X.rows.shape, s[0]):
        raise np.linalg.LinAlgError("sensing matrix is rank deficient")
    pinv = (Vh.conj().T / s) @ U.conj().T
    pinv.flags.writeable = False
    return pinv


def fde_ls_recover(y_full: np.ndarray, X_full: SensingMatrix) -> RecoveryResult:
    """Dense least-squares estimate using at least as many pilot tones as taps.

    The estimate is ``pinv(X) y``; the pseudo-inverse is computed once per
    matrix and kept on `X_full`.  Raises ``ValueError`` when `X_full` has
    fewer rows than columns, and ``LinAlgError`` on every call when the
    sensing columns are numerically dependent (see `_ls_pinv`).
    """
    m, d = X_full.rows.shape
    if m < d:
        raise ValueError(f"dense estimation needs at least {d} tones, got {m}")
    y_full = _check_measurement(y_full, X_full)
    estimate = _dense_ls(y_full, X_full)
    return RecoveryResult(
        estimate=estimate,
        recovered_support=threshold_support(estimate),
        solver_status="optimal",
    )


def _dense_ls(Y: np.ndarray, X: SensingMatrix) -> np.ndarray:
    """``pinv(X) y`` for each row y of `Y` (..., M), one matrix-vector call each."""
    return (X.cached("ls_pinv", _ls_pinv) @ Y[..., None])[..., 0]


def nmse(true_h: np.ndarray, estimate: np.ndarray) -> float:
    """``10 log10(||estimate - true||^2 / ||true||^2)``, floored at `NMSE_FLOOR_DB`.

    Raises ValueError unless both are 1-D of one length, and when either holds
    a non-finite or non-numeric entry, so a broken estimate is never scored.
    """
    return float(_nmse_db(_as_finite(true_h, "true channel", ndim=1), estimate))


def _nmse_db(true_h, estimate) -> np.ndarray:
    """`nmse` of each row of `estimate` against the same row of `true_h`, as an array.

    Raises ValueError unless both have one shape, when either holds a
    non-finite or non-numeric entry and when any row of `true_h` has zero norm.
    """
    true_h = _as_finite(true_h, "true channel")
    estimate = _as_finite(estimate, "estimate")
    if estimate.shape != true_h.shape:
        raise ValueError(f"estimate has shape {estimate.shape}, true channel {true_h.shape}")
    true_h, estimate = true_h.astype(complex), estimate.astype(complex)  # no integer overflow
    signal = np.sum(np.abs(true_h) ** 2, axis=-1)
    if not signal.all():
        raise ValueError("true channel has zero norm")
    ratio = np.sum(np.abs(estimate - true_h) ** 2, axis=-1) / signal
    floor = 10.0 ** (NMSE_FLOOR_DB / 10.0)
    return np.where(ratio <= floor, NMSE_FLOOR_DB, 10.0 * np.log10(np.maximum(ratio, floor)))
