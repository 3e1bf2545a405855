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
    mags = np.abs(_as_finite(estimate, "estimate", ndim=1))
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return np.array([], dtype=int)
    return np.flatnonzero(mags > max(floor, 0.01 * top))


def _check_measurement(y, X: SensingMatrix) -> np.ndarray:
    """`y` as an array of one finite number per row of `X`; else ``ValueError``."""
    if np.shape(y) != X.rows.shape[:1]:
        raise ValueError(
            f"measurement has shape {np.shape(y)}, need ({X.rows.shape[0]},) "
            "for the sensing matrix"
        )
    return _as_finite(y, "measurement")


def _stepwise_select(y, Xs, candidates, threshold):
    """Prune/extend the candidate support by residual-energy significance.

    Each pass prunes the tap whose removal raises the residual energy least
    while that rise is below `threshold`, then, under `CANDIDATE_CAP` taps,
    adds the tap most correlated with the residual when that lowers the
    residual energy by more than the same amount; passes repeat (at most
    ``4 * CANDIDATE_CAP``) until neither step changes the support.  Both
    scores come from one thin QR ``Xs_K = Q R`` of the support: with
    ``coef = R^-1 Q^H y``, removing tap i raises the residual energy by
    ``|coef_i|^2 / ||row i of R^-1||^2``, and adding column a lowers it by
    ``|u^H r|^2 / ||u||^2`` with ``u = (I - Q Q^H) a`` and r the residual.
    A column in the span of the others (or beyond the row count) is pruned
    whatever the threshold, and by the same rounding rule on ``||u||`` a
    column in the span of the support is never added.  Returns the sorted
    support, ``coef`` from the factor of exactly that support in the same
    order, and the passes run.
    """
    keep = list(candidates)
    m = Xs.shape[0]
    for passes in range(1, 4 * CANDIDATE_CAP + 1):
        changed = False
        while True:
            Q, R = np.linalg.qr(Xs[:, keep])
            qy = Q.conj().T @ y
            resid = y - Q @ qy
            if not keep:
                coef = qy  # empty: the fit of no columns
                break
            diag = np.abs(np.diagonal(R))
            tol = max(m, len(keep)) * np.finfo(float).eps * diag.max()
            dependent = np.flatnonzero(diag <= tol)
            if dependent.size or len(keep) > m:
                keep.pop(int(dependent[0]) if dependent.size else m)
                changed = True
                continue
            R_inv = np.linalg.inv(R)
            coef = R_inv @ qy
            rises = np.abs(coef) ** 2 / np.sum(np.abs(R_inv) ** 2, axis=1)
            weakest = int(np.argmin(rises))
            if rises[weakest] >= threshold:
                break
            keep.pop(weakest)
            changed = True
        corr = np.abs(Xs.conj().T @ resid)
        if keep:
            corr[keep] = 0.0
        best = int(np.argmax(corr))
        if len(keep) < CANDIDATE_CAP:
            u = Xs[:, best] - Q @ (Q.conj().T @ Xs[:, best])
            u_norm2 = np.vdot(u, u).real
            # a column the prune would find dependent is not added
            tol = max(m, len(keep) + 1) * np.finfo(float).eps * (diag.max() if keep else 0.0)
            if u_norm2 > tol**2 and abs(np.vdot(u, resid)) ** 2 > threshold * u_norm2:
                keep.append(best)
                changed = True
        if not changed:
            break
    if len(keep) > coef.size:
        # the pass limit fell right after an add, past the last factor
        Q, R = np.linalg.qr(Xs[:, keep])
        coef = np.linalg.solve(R, Q.conj().T @ y)
    order = np.argsort(keep)
    return np.asarray(keep, dtype=int)[order], coef[order], passes


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
    estimate is the surviving support's least-squares fit, from its QR.

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
    """Greedy correlation matching with a per-iteration least-squares refit.

    Runs exactly `sparsity` iterations and is deterministic given its
    inputs (argmax ties resolve to the lowest index).
    """
    if not 0 <= _as_count(sparsity, "sparsity") <= X.rows.shape[0]:
        raise ValueError(
            f"sparsity must be between 0 and the {X.rows.shape[0]} measurements, "
            f"got {sparsity!r}"
        )
    y = _check_measurement(y, X)
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
    y_full = _check_measurement(y_full, X_full)
    pinv = X_full.cached("ls_pinv", _ls_pinv)
    estimate = pinv @ y_full
    return RecoveryResult(
        estimate=estimate,
        recovered_support=threshold_support(estimate),
        solver_status="optimal",
    )


def nmse(true_h: np.ndarray, estimate: np.ndarray) -> float:
    """``10 log10(||estimate - true||^2 / ||true||^2)``, floored at `NMSE_FLOOR_DB`.

    Raises ValueError unless both are 1-D of one length, and when either holds
    a non-finite or non-numeric entry, so a broken estimate is never scored.
    """
    true_h = _as_finite(true_h, "true channel", ndim=1)
    estimate = _as_finite(estimate, "estimate")
    if estimate.shape != true_h.shape:
        raise ValueError(f"estimate has shape {estimate.shape}, true channel {true_h.shape}")
    true_h, estimate = true_h.astype(complex), estimate.astype(complex)  # no integer overflow
    signal = float(np.sum(np.abs(true_h) ** 2))
    if signal == 0.0:
        raise ValueError("true channel has zero norm")
    err = float(np.sum(np.abs(estimate - true_h) ** 2))
    ratio = err / signal
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))
