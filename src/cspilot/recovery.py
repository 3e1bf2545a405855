"""Sparse channel estimation from pilot measurements.

Three estimators over the model ``y = sqrt(E) X h + z``:

* `dantzig_recover` — l1 minimization subject to an sup-norm bound on the
  correlated residual ``X^H (y - sqrt(E) X h)``, solved as a real linear
  program, with an optional least-squares debias stage;
* `omp_recover` — greedy correlation matching, used as an independent
  cross-validation oracle;
* `fde_ls_recover` — the dense least-squares baseline that spends one pilot
  tone per coherence band (tap_count tones in total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OfdmParams, SensingMatrix
from .simplex import solve_lp

NMSE_FLOOR_DB = -200.0


@dataclass
class RecoveryResult:
    """Channel estimate plus solver diagnostics.

    ``objective_value`` is the l1 value delivered by the solver (sum of
    |Re| + |Im| over taps) before any debias refit; ``raw_estimate`` keeps
    the pre-debias solution so callers can score both stages from one
    solve; ``lp_iterations`` is the pivot count of that solve and
    ``debias_passes`` the number of stepwise debias passes run (0 when the
    stepwise step is skipped); both are None for estimators without an LP.
    ``nmse_db`` is filled in by benchmarks that know the true channel.
    """

    estimate: np.ndarray
    recovered_support: np.ndarray
    solver_status: str
    objective_value: float
    raw_estimate: np.ndarray | None = None
    lp_iterations: int | None = None
    debias_passes: int | None = None
    nmse_db: float | None = None


@dataclass(frozen=True)
class DantzigConfig:
    """Constraint level and debias policy for the l1 program.

    epsilon_rule "scaled" sets
    ``epsilon = scale_c * sigma * sqrt(E * M) * sqrt(2 * ln(tap_count))``
    with sigma^2 = ``noise_variance``; "explicit" uses `epsilon` as given.

    Debias: taps whose raw magnitude clears
    ``max(magnitude_floor, 0.01 * largest)`` become candidates (at most
    ``candidate_cap``, keeping the largest).  With ``noise_variance > 0``
    the candidate set is then refined by stepwise least squares: a tap is
    pruned when removing it raises the residual energy by less than
    ``selection_tau * noise_variance``, and a tap is added back from the
    residual correlations when it lowers the residual energy by more than
    the same amount.  The final estimate is the least-squares refit on the
    surviving support.

    Every float field must be finite, ``scale_c`` positive and
    ``noise_variance`` nonnegative (``ValueError`` otherwise).
    """

    epsilon: float | None = None
    epsilon_rule: str = "explicit"
    scale_c: float = 1.0
    noise_variance: float = 0.0
    debias: bool = True
    magnitude_floor: float = 0.0
    candidate_cap: int = 12
    selection_tau: float = 10.0

    def __post_init__(self):
        for name in ("epsilon", "scale_c", "noise_variance", "magnitude_floor", "selection_tau"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.epsilon_rule not in ("explicit", "scaled"):
            raise ValueError(f"unknown epsilon_rule {self.epsilon_rule!r}")
        if self.epsilon_rule == "explicit":
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError("explicit rule requires epsilon > 0")
        else:
            if self.noise_variance <= 0:
                raise ValueError("scaled rule requires noise_variance > 0")
        if self.scale_c <= 0:
            raise ValueError(f"scale_c must be positive, got {self.scale_c!r}")
        if self.noise_variance < 0:
            raise ValueError(
                f"noise_variance must be nonnegative, got {self.noise_variance!r}"
            )
        if self.magnitude_floor < 0 or self.selection_tau < 0:
            raise ValueError("magnitude_floor and selection_tau must be nonnegative")
        if self.candidate_cap < 1:
            raise ValueError("candidate_cap must be positive")


def dantzig_epsilon(cfg: DantzigConfig, params: OfdmParams) -> float:
    """Resolve the constraint level for the given configuration."""
    if cfg.epsilon_rule == "explicit":
        return float(cfg.epsilon)
    return float(
        cfg.scale_c
        * np.sqrt(cfg.noise_variance)
        * np.sqrt(params.symbol_energy * params.pilot_count)
        * np.sqrt(2.0 * np.log(params.tap_count))
    )


def _embed_lp(y, X: SensingMatrix, energy: float, eps: float):
    # Real form of min ||h||_1 s.t. ||X^H(y - sqrt(E) X h)||_inf <= eps over
    # z = [Re h, Im h]: per-entry bounds eps/sqrt(2) on the real and
    # imaginary parts of the correlated residual, each as a pair of rows.
    G = np.sqrt(energy) * (X.rows.conj().T @ X.rows)
    v = X.rows.conj().T @ y
    R, Im = G.real, G.imag
    t = eps / np.sqrt(2.0)
    A = np.block([[-R, Im], [R, -Im], [-Im, -R], [Im, R]])
    b = np.concatenate([t - v.real, t + v.real, t - v.imag, t + v.imag])
    c = np.ones(A.shape[1])
    return c, A, b


def threshold_support(estimate: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Indices whose magnitude clears ``max(floor, 0.01 * largest)``."""
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


def _ls_refit(y, Xs: np.ndarray, energy: float, support) -> tuple[float, np.ndarray | None]:
    """Residual energy and coefficients of the LS fit restricted to `support`."""
    idx = list(support)
    if not idx:
        return float(np.sum(np.abs(y) ** 2)), None
    A = np.sqrt(energy) * Xs[:, idx]
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(np.sum(np.abs(resid) ** 2)), coef


def _stepwise_select(y, Xs, energy, candidates, cap, tau, noise_var):
    """Prune/extend the candidate support by residual-energy significance.

    Each pass prunes the tap whose removal raises the residual energy least
    while that rise is below ``tau * noise_var``, then adds the tap most
    correlated with the residual when its addition lowers the residual
    energy by more than the same amount; passes repeat (at most ``4 * cap``)
    until neither step changes the support.  Both scores come from one thin
    QR ``A_K = Q R`` of the weighted support columns: removing tap i raises
    the residual energy by ``|coef_i|^2 / ||row i of R^-1||^2`` and adding
    column a lowers it by ``|u^H r|^2 / ||u||^2`` with ``u = (I - Q Q^H) a``
    and r the residual.  A column in the span of the other support columns
    (or beyond the row count) scores a zero rise.  Returns the sorted
    support and the number of passes run.
    """
    keep = list(candidates)
    threshold = tau * noise_var
    A = np.sqrt(energy) * Xs
    m = A.shape[0]
    for passes in range(1, 4 * cap + 1):
        changed = False
        while True:
            Q, R = np.linalg.qr(A[:, keep])
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
            u = A[:, best] - Q @ (Q.conj().T @ A[:, best])
            if abs(np.vdot(u, resid)) ** 2 > threshold * np.vdot(u, u).real:
                keep.append(best)
                changed = True
        if not changed:
            break
    return sorted(keep), passes


def dantzig_recover(
    y: np.ndarray, X: SensingMatrix, params: OfdmParams, cfg: DantzigConfig
) -> RecoveryResult:
    """Solve the l1 residual-correlation program and optionally debias.

    Returns the raw program solution when ``cfg.debias`` is off; otherwise
    the least-squares refit on the selected support (see `DantzigConfig`).
    """
    _check_measurement(y, X)
    d = X.rows.shape[1]
    eps = dantzig_epsilon(cfg, params)
    c, A, b = _embed_lp(y, X, params.symbol_energy, eps)
    res = solve_lp(c, A, b)
    if res.status != "optimal":
        zero = np.zeros(d, dtype=complex)
        return RecoveryResult(
            estimate=zero,
            recovered_support=np.array([], dtype=int),
            solver_status=res.status,
            objective_value=np.nan,
            raw_estimate=zero,
            lp_iterations=res.iterations,
            debias_passes=0,
        )
    raw = res.x[:d] + 1j * res.x[d:]
    support = threshold_support(raw, cfg.magnitude_floor)
    if not cfg.debias:
        return RecoveryResult(
            estimate=raw,
            recovered_support=support,
            solver_status="optimal",
            objective_value=res.objective,
            raw_estimate=raw,
            lp_iterations=res.iterations,
            debias_passes=0,
        )
    if support.size > cfg.candidate_cap:
        mags = np.abs(raw)
        support = np.sort(support[np.argsort(mags[support])[-cfg.candidate_cap :]])
    passes = 0
    if cfg.noise_variance > 0:
        selected, passes = _stepwise_select(
            y,
            X.rows,
            params.symbol_energy,
            list(support),
            cfg.candidate_cap,
            cfg.selection_tau,
            cfg.noise_variance,
        )
        support = np.asarray(selected, dtype=int)
    estimate = np.zeros(d, dtype=complex)
    if support.size:
        _, coef = _ls_refit(y, X.rows, params.symbol_energy, list(support))
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


def omp_recover(
    y: np.ndarray, X: SensingMatrix, params: OfdmParams, sparsity: int
) -> RecoveryResult:
    """Greedy correlation matching with a per-iteration least-squares refit.

    Runs exactly `sparsity` iterations and is deterministic given its
    inputs (argmax ties resolve to the lowest index).
    """
    if sparsity > X.rows.shape[0]:
        raise ValueError("sparsity cannot exceed the number of measurements")
    _check_measurement(y, X)
    d = X.rows.shape[1]
    A = np.sqrt(params.symbol_energy) * X.rows
    selected: list[int] = []
    coef = np.array([], dtype=complex)
    resid = y.astype(complex)
    for _ in range(sparsity):
        corr = np.abs(X.rows.conj().T @ resid)
        if selected:
            corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        cols = A[:, selected]
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


def fde_ls_recover(
    y_full: np.ndarray, X_full: SensingMatrix, params: OfdmParams
) -> RecoveryResult:
    """Dense least-squares estimate using tap_count (or more) pilot tones.

    Raises ``LinAlgError`` when the sensing columns are numerically
    dependent, by the rank `numpy.linalg.lstsq` reports for the solve.
    """
    m, d = X_full.rows.shape
    if m < params.tap_count:
        raise ValueError(
            f"dense estimation needs at least {params.tap_count} tones, got {m}"
        )
    _check_measurement(y_full, X_full)
    A = np.sqrt(params.symbol_energy) * X_full.rows
    # lstsq counts singular values above max(m, d) * eps * largest, the
    # matrix_rank rule, so its rank is the full-column-rank check
    estimate, _, rank, _ = np.linalg.lstsq(A, y_full, rcond=None)
    if rank < d:
        raise np.linalg.LinAlgError("sensing matrix is rank deficient")
    return RecoveryResult(
        estimate=estimate,
        recovered_support=threshold_support(estimate),
        solver_status="optimal",
        objective_value=float(np.abs(estimate.real).sum() + np.abs(estimate.imag).sum()),
    )


def nmse(true_h: np.ndarray, estimate: np.ndarray, floor_db: float = NMSE_FLOOR_DB) -> float:
    """``10 log10(||estimate - true||^2 / ||true||^2)``, floored at `floor_db`."""
    signal = float(np.sum(np.abs(true_h) ** 2))
    if signal == 0.0:
        raise ValueError("true channel has zero norm")
    err = float(np.sum(np.abs(estimate - true_h) ** 2))
    ratio = err / signal
    if ratio <= 10.0 ** (floor_db / 10.0):
        return floor_db
    return float(10.0 * np.log10(ratio))
