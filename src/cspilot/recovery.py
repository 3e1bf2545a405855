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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OfdmParams, SensingMatrix
from .simplex import solve_lp

NMSE_FLOOR_DB = -200.0
CANDIDATE_CAP = 12  # debias candidates kept, the largest raw taps first
SELECTION_TAU = 10.0  # stepwise significance level, in units of the noise variance


@dataclass
class RecoveryResult:
    """Channel estimate plus solver diagnostics.

    ``objective_value`` is the l1 value delivered by the solver (sum of
    |Re| + |Im| over taps) before the debias refit; ``raw_estimate`` keeps
    the program solution so callers can score both stages from one solve;
    ``lp_iterations`` is the pivot count of that solve and
    ``debias_passes`` the number of stepwise debias passes run (0 when the
    stepwise step is skipped); all three are None for estimators without an
    LP.
    """

    estimate: np.ndarray
    recovered_support: np.ndarray
    solver_status: str
    objective_value: float
    raw_estimate: np.ndarray | None = None
    lp_iterations: int | None = None
    debias_passes: int | None = None


@dataclass(frozen=True)
class DantzigConfig:
    """Constraint level and debias floor for the l1 program.

    A given `epsilon` is used as is.  Unset, it is scaled to the noise:
    ``epsilon = sigma * sqrt(M) * sqrt(2 * ln(D))`` for an M x D sensing
    matrix, with sigma^2 = ``noise_variance`` (which must then be positive), the
    deviation of one entry of the correlated noise ``X^H z`` times the
    Gaussian sup-norm factor over the taps.

    Debias: taps whose raw magnitude clears
    ``max(magnitude_floor, 0.01 * largest)`` become candidates (at most
    `CANDIDATE_CAP`, keeping the largest).  With ``noise_variance > 0``
    the candidate set is then refined by stepwise least squares: a tap is
    pruned when removing it raises the residual energy by less than
    ``SELECTION_TAU * noise_variance``, and a tap is added back from the
    residual correlations when it lowers the residual energy by more than
    the same amount.  The final estimate is the least-squares refit on the
    surviving support.

    Every field must be finite, a given `epsilon` positive and the other two
    nonnegative (``ValueError`` otherwise).
    """

    epsilon: float | None = None
    noise_variance: float = 0.0
    magnitude_floor: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "noise_variance", "magnitude_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.noise_variance < 0:
            raise ValueError(
                f"noise_variance must be nonnegative, got {self.noise_variance!r}"
            )
        if self.epsilon is None and self.noise_variance == 0:
            raise ValueError("an unset epsilon requires noise_variance > 0")
        if self.magnitude_floor < 0:
            raise ValueError(
                f"magnitude_floor must be nonnegative, got {self.magnitude_floor!r}"
            )


def dantzig_epsilon(cfg: DantzigConfig, X: SensingMatrix) -> float:
    """Resolve the constraint level for the given configuration and M x D matrix."""
    if cfg.epsilon is not None:
        return float(cfg.epsilon)
    m, d = X.rows.shape
    return float(np.sqrt(cfg.noise_variance) * np.sqrt(m) * np.sqrt(2.0 * np.log(d)))


def _lp_block(X: SensingMatrix) -> np.ndarray:
    """``[[-R, Im], [R, -Im], [-Im, -R], [Im, R]]`` for ``X^H X = R + j Im``.

    Read-only; each odd block row is the exact negation of the next one.
    """
    G = X.rows.conj().T @ X.rows
    d = G.shape[0]
    A = np.empty((4 * d, 2 * d))
    A[d : 2 * d, :d] = G.real
    A[d : 2 * d, d:] = -G.imag
    A[3 * d :, :d] = G.imag
    A[3 * d :, d:] = G.real
    np.negative(A[d : 2 * d], out=A[:d])
    np.negative(A[3 * d :], out=A[2 * d : 3 * d])
    A.flags.writeable = False
    return A


def _embed_lp(y, X: SensingMatrix, eps: float):
    # Real form of min ||h||_1 s.t. ||X^H(y - X h)||_inf <= eps over
    # z = [Re h, Im h]: per-entry bounds eps/sqrt(2) on the real and
    # imaginary parts of the correlated residual, each as a pair of rows.
    # The constraint block depends on the tones only, so X keeps it.
    A = X.cached("lp_block", _lp_block)
    v = X.rows.conj().T @ y
    t = eps / np.sqrt(2.0)
    b = np.concatenate([t - v.real, t + v.real, t - v.imag, t + v.imag])
    c = np.ones(A.shape[1])
    return c, A, b


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


def _stepwise_select(y, Xs, candidates, cap, tau, noise_var):
    """Prune/extend the candidate support by residual-energy significance.

    Each pass prunes the tap whose removal raises the residual energy least
    while that rise is below ``tau * noise_var``, then adds the tap most
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
    threshold = tau * noise_var
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


def dantzig_recover(y: np.ndarray, X: SensingMatrix, cfg: DantzigConfig) -> RecoveryResult:
    """Solve the l1 residual-correlation program and debias its solution.

    The estimate is the least-squares refit on the selected support (see
    `DantzigConfig`); ``raw_estimate`` is the program solution.  When the
    solve is not optimal, `solver_status` says so and both hold NaN.
    """
    _check_measurement(y, X)
    d = X.rows.shape[1]
    eps = dantzig_epsilon(cfg, X)
    c, A, b = _embed_lp(y, X, eps)
    res = solve_lp(c, A, b)
    if res.status != "optimal":
        # NaN entries, which nmse and threshold_support reject, so a failed
        # solve cannot be scored as an estimate
        failed = np.full(d, np.nan, dtype=complex)
        return RecoveryResult(
            estimate=failed,
            recovered_support=np.array([], dtype=int),
            solver_status=res.status,
            objective_value=np.nan,
            raw_estimate=failed,
            lp_iterations=res.iterations,
            debias_passes=0,
        )
    raw = res.x[:d] + 1j * res.x[d:]
    support = threshold_support(raw, cfg.magnitude_floor)
    if support.size > CANDIDATE_CAP:
        mags = np.abs(raw)
        support = np.sort(support[np.argsort(mags[support])[-CANDIDATE_CAP:]])
    passes = 0
    if cfg.noise_variance > 0:
        selected, passes = _stepwise_select(
            y,
            X.rows,
            list(support),
            CANDIDATE_CAP,
            SELECTION_TAU,
            cfg.noise_variance,
        )
        support = np.asarray(selected, dtype=int)
    estimate = np.zeros(d, dtype=complex)
    if support.size:
        _, coef = _ls_refit(y, X.rows, list(support))
        estimate[support] = coef
    return RecoveryResult(
        estimate=estimate,
        recovered_support=support,
        solver_status="optimal",
        objective_value=res.objective,
        raw_estimate=raw,
        lp_iterations=res.iterations,
        debias_passes=passes,
    )


def omp_recover(y: np.ndarray, X: SensingMatrix, sparsity: int) -> RecoveryResult:
    """Greedy correlation matching with a per-iteration least-squares refit.

    Runs exactly `sparsity` iterations and is deterministic given its
    inputs (argmax ties resolve to the lowest index).
    """
    if not 0 <= sparsity <= X.rows.shape[0]:
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
        objective_value=float(np.abs(estimate.real).sum() + np.abs(estimate.imag).sum()),
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
        objective_value=float(np.abs(estimate.real).sum() + np.abs(estimate.imag).sum()),
    )


def nmse(true_h: np.ndarray, estimate: np.ndarray, floor_db: float = NMSE_FLOOR_DB) -> float:
    """``10 log10(||estimate - true||^2 / ||true||^2)``, floored at `floor_db`.

    Raises ValueError when either argument holds a non-finite entry, so a
    broken estimate is never scored as a number.
    """
    if not (np.all(np.isfinite(true_h)) and np.all(np.isfinite(estimate))):
        raise ValueError("true channel and estimate must be finite")
    signal = float(np.sum(np.abs(true_h) ** 2))
    if signal == 0.0:
        raise ValueError("true channel has zero norm")
    err = float(np.sum(np.abs(estimate - true_h) ** 2))
    ratio = err / signal
    if ratio <= 10.0 ** (floor_db / 10.0):
        return floor_db
    return float(10.0 * np.log10(ratio))
