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

import math
from dataclasses import dataclass

import numpy as np

from .channel import OfdmParams, SensingMatrix, _as_count
from .simplex import solve_lp

NMSE_FLOOR_DB = -200.0
CANDIDATE_CAP = 12  # debias candidates kept, the largest raw taps first
SELECTION_TAU = 10.0  # stepwise significance level, in units of the noise variance
NOISELESS_EPSILON = 1e-6  # constraint level at noise variance 0
MAGNITUDE_FLOOR = 0.01  # smallest raw tap magnitude kept as a candidate under noise


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
    if not (math.isfinite(noise_variance) and noise_variance >= 0):
        raise ValueError(f"noise_variance must be finite and nonnegative, got {noise_variance!r}")
    if noise_variance == 0:
        return NOISELESS_EPSILON
    m, d = X.rows.shape
    return float(np.sqrt(noise_variance) * np.sqrt(m) * np.sqrt(2.0 * np.log(d)))


def _lp_factors(X: SensingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``U, V`` of the LP block ``U @ V = [[-R, Im], [R, -Im], [-Im, -R], [Im, R]]``.

    ``X^H X = R + j Im``; ``V = [[Re X, -Im X], [Im X, Re X]]`` is the real
    form of X, and ``U = [-V1^T; V1^T; -V2^T; V2^T]`` for the column halves
    ``V = [V1, V2]``, so each odd block row of U is the exact negation of
    the next one.  Both are read-only.
    """
    m, d = X.rows.shape
    V = np.empty((2 * m, 2 * d))
    V[:m, :d] = X.rows.real
    np.negative(X.rows.imag, out=V[:m, d:])
    V[m:, :d] = X.rows.imag
    V[m:, d:] = X.rows.real
    U = np.empty((4 * d, 2 * m))
    U[d : 2 * d] = V[:, :d].T
    U[3 * d :] = V[:, d:].T
    np.negative(U[d : 2 * d], out=U[:d])
    np.negative(U[3 * d :], out=U[2 * d : 3 * d])
    U.flags.writeable = False
    V.flags.writeable = False
    return U, V


def _embed_lp(y, X: SensingMatrix, eps: float):
    # Real form of min ||h||_1 s.t. ||X^H(y - X h)||_inf <= eps over
    # z = [Re h, Im h]: per-entry bounds eps/sqrt(2) on the real and
    # imaginary parts of the correlated residual, each as a pair of rows.
    # The constraint factors depend on the tones only, so X keeps them.
    U, V = X.cached("lp_factors", _lp_factors)
    v = X.rows.conj().T @ y
    t = eps / np.sqrt(2.0)
    b = np.concatenate([t - v.real, t + v.real, t - v.imag, t + v.imag])
    c = np.ones(V.shape[1])
    return c, U, V, b


def threshold_support(estimate: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Indices whose magnitude clears ``max(floor, 0.01 * largest)``.

    Raises ValueError for a non-finite or negative `floor` and for a
    non-finite entry of `estimate`, which no threshold can rank.
    """
    if not (math.isfinite(floor) and floor >= 0):
        raise ValueError("floor must be finite and non-negative")
    if not np.all(np.isfinite(estimate)):
        raise ValueError("estimate must be finite")
    mags = np.abs(estimate)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > max(floor, 0.01 * top))


def _check_measurement(y: np.ndarray, X: SensingMatrix) -> None:
    if y.shape[0] != X.rows.shape[0]:
        raise ValueError("measurement length does not match the sensing matrix")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement must be finite")


def _ls_refit(y, Xs: np.ndarray, support) -> tuple[float, np.ndarray | None]:
    """Residual energy and coefficients of the LS fit restricted to `support`."""
    idx = list(support)
    if not idx:
        return float(np.sum(np.abs(y) ** 2)), None
    A = Xs[:, idx]
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(np.sum(np.abs(resid) ** 2)), coef


def _stepwise_select(y, Xs, candidates, cap, threshold):
    """Prune/extend the candidate support by residual-energy significance.

    Each pass prunes the tap whose removal raises the residual energy least
    while that rise is below `threshold`, then adds the tap most
    correlated with the residual when its addition lowers the residual
    energy by more than the same amount; passes repeat (at most ``4 * cap``)
    until neither step changes the support.  Both scores come from one thin
    QR ``Xs_K = Q R`` of the support columns: removing tap i raises
    the residual energy by ``|coef_i|^2 / ||row i of R^-1||^2`` and adding
    column a lowers it by ``|u^H r|^2 / ||u||^2`` with ``u = (I - Q Q^H) a``
    and r the residual.  A column in the span of the other support columns
    (or beyond the row count) scores a zero rise.  Returns the sorted
    support and the number of passes run.
    """
    keep = list(candidates)
    m = Xs.shape[0]
    for passes in range(1, 4 * cap + 1):
        changed = False
        while True:
            Q, R = np.linalg.qr(Xs[:, keep])
            qy = Q.conj().T @ y
            resid = y - Q @ qy
            if not keep:
                break
            diag = np.abs(np.diagonal(R))
            tol = max(m, len(keep)) * np.finfo(float).eps * diag.max()
            dependent = np.flatnonzero(diag <= tol)
            if dependent.size or len(keep) > m:
                # in the span of the other columns: removing it costs nothing
                weakest = int(dependent[0]) if dependent.size else m
                rise = 0.0
            else:
                R_inv = np.linalg.inv(R)
                rises = np.abs(R_inv @ qy) ** 2 / np.sum(np.abs(R_inv) ** 2, axis=1)
                weakest = int(np.argmin(rises))
                rise = rises[weakest]
            if rise < threshold:
                keep.pop(weakest)
                changed = True
            else:
                break
        corr = np.abs(Xs.conj().T @ resid)
        if keep:
            corr[keep] = 0.0
        best = int(np.argmax(corr))
        if len(keep) < cap:
            u = Xs[:, best] - Q @ (Q.conj().T @ Xs[:, best])
            if abs(np.vdot(u, resid)) ** 2 > threshold * np.vdot(u, u).real:
                keep.append(best)
                changed = True
        if not changed:
            break
    return sorted(keep), passes


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
    estimate is the least-squares refit on the surviving support.

    ``raw_estimate`` is the program solution and ``raw_support`` its
    candidates before the cap.  When the solve is not optimal,
    `solver_status` says so, both estimates hold NaN and both supports are
    empty.  Raises ``ValueError`` for a non-finite or negative
    `noise_variance`.
    """
    _check_measurement(y, X)
    d = X.rows.shape[1]
    eps = dantzig_epsilon(noise_variance, X)
    c, U, V, b = _embed_lp(y, X, eps)
    res = solve_lp(c, U, V, b)
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
        mags = np.abs(raw)
        support = np.sort(support[np.argsort(mags[support])[-CANDIDATE_CAP:]])
    selected, passes = _stepwise_select(y, X.rows, list(support), CANDIDATE_CAP, threshold)
    support = np.asarray(selected, dtype=int)
    estimate = np.zeros(d, dtype=complex)
    if support.size:
        _, coef = _ls_refit(y, X.rows, list(support))
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
    """Greedy correlation matching with a per-iteration least-squares refit.

    Runs exactly `sparsity` iterations and is deterministic given its
    inputs (argmax ties resolve to the lowest index).
    """
    if not 0 <= _as_count(sparsity, "sparsity") <= X.rows.shape[0]:
        raise ValueError(
            f"sparsity must be between 0 and the {X.rows.shape[0]} measurements, "
            f"got {sparsity!r}"
        )
    _check_measurement(y, X)
    d = X.rows.shape[1]
    selected: list[int] = []
    coef = np.array([], dtype=complex)
    resid = y.astype(complex)
    for _ in range(sparsity):
        corr = np.abs(X.rows.conj().T @ resid)
        if selected:
            corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        cols = X.rows[:, selected]
        coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < len(selected):
            raise np.linalg.LinAlgError(
                "selected sensing columns are numerically dependent"
            )
        resid = y - cols @ coef
    estimate = np.zeros(d, dtype=complex)
    support = np.array(sorted(selected), dtype=int)
    if selected:
        estimate[selected] = coef
    return RecoveryResult(
        estimate=estimate,
        recovered_support=support,
        solver_status="optimal",
    )


def comb_tone_set(params: OfdmParams) -> np.ndarray:
    """One tone per coherence band: tap_count tones at the widest even stride."""
    stride = params.bandwidth_time_product // params.tap_count
    return np.arange(params.tap_count) * stride


def _ls_pinv(X: SensingMatrix) -> np.ndarray:
    """Pseudo-inverse of ``X`` from one SVD; ``LinAlgError`` below full column rank.

    Full rank means every singular value clears ``max(m, d) * eps *
    largest``, the `numpy.linalg.matrix_rank` rule.
    """
    U, s, Vh = np.linalg.svd(X.rows, full_matrices=False)
    if s[-1] <= max(X.rows.shape) * np.finfo(float).eps * s[0]:
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
    _check_measurement(y_full, X_full)
    pinv = X_full.cached("ls_pinv", _ls_pinv)
    estimate = pinv @ y_full
    return RecoveryResult(
        estimate=estimate,
        recovered_support=threshold_support(estimate),
        solver_status="optimal",
    )


def nmse(true_h: np.ndarray, estimate: np.ndarray) -> float:
    """``10 log10(||estimate - true||^2 / ||true||^2)``, floored at `NMSE_FLOOR_DB`.

    Raises ValueError when the two shapes differ or either argument holds a
    non-finite entry, so a broken estimate is never scored as a number.
    """
    if np.shape(estimate) != np.shape(true_h):
        raise ValueError(
            f"estimate has shape {np.shape(estimate)}, true channel {np.shape(true_h)}"
        )
    if not (np.all(np.isfinite(true_h)) and np.all(np.isfinite(estimate))):
        raise ValueError("true channel and estimate must be finite")
    signal = float(np.sum(np.abs(true_h) ** 2))
    if signal == 0.0:
        raise ValueError("true channel has zero norm")
    err = float(np.sum(np.abs(estimate - true_h) ** 2))
    ratio = err / signal
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
