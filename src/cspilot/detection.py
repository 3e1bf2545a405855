"""Massive-MIMO energy detection of an active UE.

With M_BS antennas, unit-variance noise and a received-power product gP,
the normalized energy ``(1/M_BS) ||y||^2`` concentrates around 1 when the
UE is silent and around 1 + gP when it transmits; a threshold between the
two separates the hypotheses with error probability vanishing in M_BS.

Both energies are Gamma distributed under the Gaussian signal model:
shape M_BS with scale 1/M_BS (silent) or (1+gP)/M_BS (active).  Sharing
the shape, their densities cross at ``(1+gP) ln(1+gP) / gP`` for every
M_BS, and their tails are regularized incomplete gamma functions, so the
threshold and the error probability are closed forms.  For the integer
shape M_BS a Gamma tail is a Poisson tail, a finite or fast-converging sum
computed here with numpy and `math` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _as_count, _as_finite, _as_points, _as_real

# exponentials per Monte-Carlo block, 4096 trials at the largest default M_BS;
# blocks fill row by row, so it sizes the reused draw buffer and not pe_mc
_MC_BUDGET = 2**19


@dataclass(frozen=True)
class DetectionConfig:
    """Antenna count, received-power product gP, and optional preset threshold.

    The threshold, when preset, must lie in the open interval (1, 1 + gP);
    with gP = 0 the hypotheses coincide, any threshold above 1 is accepted,
    and only Monte-Carlo operations are meaningful.
    """

    antenna_count: int
    pathloss_power: float
    threshold: float | None = None

    def __post_init__(self):
        if _as_count(self.antenna_count, "antenna_count") < 1:
            raise ValueError("antenna_count must be at least 1")
        if _as_real(self.pathloss_power, "pathloss_power") < 0:
            raise ValueError("pathloss_power must be finite and nonnegative")
        if self.threshold is None:
            return
        if _as_real(self.threshold, "threshold") <= 1:
            raise ValueError("threshold must exceed 1")
        if self.pathloss_power > 0 and self.threshold >= 1 + self.pathloss_power:
            raise ValueError("threshold must be below 1 + pathloss_power")


def _crossing(gp):
    """Density crossing ``(1+gP) ln(1+gP) / gP``, elementwise for arrays.

    Raises ``ValueError`` unless every crossing lies strictly inside
    (1, 1 + gP); it rounds to 1.0 for gP below about 1e-16.
    """
    gp = np.asarray(gp, dtype=float)
    # numerator and denominator scaled by 2**-10, exactly, so that the
    # numerator stays finite up to the largest double
    threshold = (1.0 + gp) * 2.0**-10 * np.log1p(gp) / (gp * 2.0**-10)
    if not np.all((1.0 < threshold) & (threshold < 1.0 + gp)):
        raise ValueError("energy densities do not cross inside (1, 1 + gP)")
    return threshold


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula, ``ln n! - (n + 1/2) ln n + n - ln(2 pi) / 2``, n >= 1."""
    if n <= 15:
        # about 1e-14 absolute through lgamma; the series below is worse here
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(k: int, x):
    """Deviance ``k ln(k/x) + x - k`` over an array x > 0, with no cancellation near x = k.

    Near k it sums ``(k-x) v + 2k (v^3/3 + v^5/5 + ...)``, v = (k-x)/(k+x),
    until no element changes (Loader 2000).
    """
    out = (x - k) - k * np.log(x / k)
    near = np.abs(k - x) < 0.1 * (k + x)
    if not near.any():
        return out
    v = (k - x[near]) / (k + x[near])
    total = (k - x[near]) * v
    power = 2.0 * k * v
    odd = 3
    while True:
        power *= v * v
        nxt = total + power / odd
        if (nxt == total).all():
            break
        total = nxt
        odd += 2
    out[near] = total
    return out


def _poisson_pmf(k: int, x):
    """``P[Poisson(x) = k]`` over an array x > 0, in Loader's saddle-point form."""
    if k == 0:
        return np.exp(-x)
    return np.exp(-_stirlerr(k) - _bd0(k, x)) / math.sqrt(2 * math.pi * k)


def _tail_sum(ratio, n: int):
    """``1 + r(1) + r(1) r(2) + ...`` for n rows of ratios below 1 that fall with j.

    ``ratio(j)`` maps a row of steps j to an (n, len(j)) block.  Blocks of
    doubling width are summed until, in every row, the geometric bound
    ``t r / (1 - r)`` on the rest (last term t, next ratio r) is below
    eps times the sum.
    """
    total = np.ones(n)
    last = np.ones(n)
    start, width = 1, 32
    while True:
        block = last[:, None] * np.cumprod(ratio(np.arange(start, start + width)), axis=1)
        total += block.sum(axis=1)
        last = block[:, -1]
        start += width
        r = ratio(np.array([start]))[:, 0]
        if np.all(last * r <= (1.0 - r) * 2.0**-52 * total):
            return total
        width *= 2


def _lower_tail(m: int, x):
    """``Q(m, x) = P[Poisson(x) <= m-1]``, summed down from term m-1, over a 1-D array x >= m."""
    return _poisson_pmf(m - 1, x) * _tail_sum(lambda j: (m - j) / x[:, None], len(x))


def _upper_tail(m: int, x):
    """``P(m, x) = P[Poisson(x) >= m]``, summed up from term m, over a 1-D array 0 < x <= m."""
    return _poisson_pmf(m, x) * _tail_sum(lambda j: x[:, None] / (m + j), len(x))


def _error_probability(m: int, gp, threshold):
    # silent survival Q(m, m t) plus active CDF P(m, m t / (1+gP)) of the
    # Gamma(m, 1/m) and Gamma(m, (1+gP)/m) energies, elementwise for arrays.
    # Every caller's t lies in (1, 1 + gP), so m t >= m >= m t / (1+gP):
    # each tail is summed away from the mean, and neither is a difference.
    m = int(m)
    with np.errstate(over="ignore"):  # m t above the largest double, where Q = 0
        silent = np.minimum(m * threshold, np.finfo(float).max)
    active = m * (threshold / (1.0 + gp))
    pe = 0.5 * (_lower_tail(m, np.ravel(silent)) + _upper_tail(m, np.ravel(active)))
    return pe.reshape(np.shape(active))


def optimal_threshold(config: DetectionConfig) -> float:
    """Density-crossing threshold ``(1+gP) ln(1+gP) / gP``.

    The crossing of the two energy densities minimizes the equal-prior
    error probability.  Raises ``ValueError`` for gP = 0, and when the
    crossing rounds out of the open interval (1, 1 + gP) (gP close to 0).
    """
    if config.pathloss_power <= 0:
        raise ValueError("optimal threshold undefined for pathloss_power = 0")
    return float(_crossing(config.pathloss_power))


def error_probability(config: DetectionConfig) -> float:
    """Analytic equal-prior error probability at the preset (or optimal) threshold.

    At gP = 0 one law holds under both hypotheses, so every threshold errs
    exactly half the time; the two tails would miss 1/2 by an ulp.
    """
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    if config.pathloss_power == 0:
        return 0.5
    return float(_error_probability(config.antenna_count, config.pathloss_power, threshold))


def error_counts(points, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo error counts of each `DetectionConfig` in `points` over the same `trials` trials.

    A point without a preset threshold runs at `optimal_threshold`.  Per
    block of ``max(1, _MC_BUDGET // max M)`` trials it draws one (n, max M)
    block of standard exponentials, ``max(M) * trials`` in all; a point reads
    the first M_BS of each row, as `error_probability_mc` reads its own.  By
    antenna count, each energy extends the previous sum by the next columns,
    and every gP at that M_BS shares it.  Raises ``ValueError`` unless
    `points` is a non-empty list of `DetectionConfig` and `trials` an
    integer of at least 1, and for a point of gP = 0 without a threshold.
    """
    points = _as_points(points, DetectionConfig, "points")
    if _as_count(trials, "trials") < 1:
        raise ValueError("trials must be at least 1")
    grid = [
        (p.antenna_count, p.pathloss_power, p.threshold or optimal_threshold(p)) for p in points
    ]
    counts = np.zeros(len(grid), dtype=np.int64)
    order = sorted(range(len(grid)), key=lambda i: grid[i][0])
    width = grid[order[-1]][0]
    buffer = np.empty((max(1, min(trials, _MC_BUDGET // width)), width))
    for done in range(0, trials, len(buffer)):
        block = rng.standard_exponential(out=buffer[: trials - done])
        total, start = 0.0, 0
        for i in order:
            m, gp, threshold = grid[i]
            if m > start:
                total, start = total + block[:, start:m].sum(axis=1), m
                energy = total / m
                # the trials with an even global index transmit
                active, silent = energy[done % 2 :: 2], energy[1 - done % 2 :: 2]
            with np.errstate(over="ignore"):  # an overflow to inf still exceeds the threshold
                hits = np.count_nonzero(active * (1.0 + gp) > threshold)
            # misses among the active trials plus false alarms among the silent
            counts[i] += (active.size - hits) + np.count_nonzero(silent > threshold)
    return counts


def error_probability_mc(
    config: DetectionConfig, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo equal-prior error probability from one draw per antenna and trial.

    Activity alternates deterministically between trials (exact equal
    priors; even trial indices transmit).  Each trial draws the energy of a
    fresh received sample per antenna, ``|CN(0, 1 + gP)|^2`` when active and
    ``|CN(0, 1)|^2`` when silent, and averages the M_BS of them; the sum
    over antennas is explicit, so it never draws the Gamma law it checks.
    Two facts are taken on trust: the channel and noise add up to one
    Gaussian, ``CN(0, gP) + CN(0, 1) = CN(0, 1 + gP)``, and the energy of
    one is exponential, ``|CN(0, s)|^2 = s Exp(1)``.

    Draw order: per block of ``max(1, _MC_BUDGET // M_BS)`` trials, one
    (n, M_BS) block of standard exponentials (row i: trial i's antennas);
    the call draws exactly ``M_BS * trials`` exponentials and nothing else.
    The energy of a row is its sum divided by M_BS, and on active trials it
    is multiplied by ``1 + gP``, one multiply per trial in place of one per
    sample.  This is the one-point case of `error_counts`, which `detect-sweep`
    runs over its grid, one row of max M_BS a trial.

    `trials` must be an integer of at least 1 (``ValueError`` otherwise).
    """
    return int(error_counts([config], trials, rng)[0]) / trials


def min_threshold_for_network(
    pathloss_powers,
    antenna_count: int,
    max_error_probability: float | None = None,
) -> float:
    """Smallest per-UE optimal threshold, optionally restricted to qualified UEs.

    A UE qualifies when its optimal-threshold error probability does not
    exceed ``max_error_probability`` (all UEs qualify when the cap is
    None).  Thresholds and error probabilities are evaluated for all UEs
    at once.  Raises ``ValueError`` on an empty or non-1-D list, on a power
    that is not a finite positive real number (a bool, str or complex
    included), on a cap that is not a finite real number, or when no UE
    qualifies.
    """
    powers = _as_finite(pathloss_powers, "pathloss_powers", kinds="iuf", ndim=1).astype(float)
    if powers.size == 0:
        raise ValueError("pathloss_powers is empty")
    if (powers <= 0).any():
        raise ValueError("all pathloss powers must be positive")
    if _as_count(antenna_count, "antenna_count") < 1:
        raise ValueError("antenna_count must be at least 1")
    if max_error_probability is not None:
        _as_real(max_error_probability, "max_error_probability")
    thresholds = _crossing(powers)
    if max_error_probability is not None:
        pe = _error_probability(antenna_count, powers, thresholds)
        thresholds = thresholds[pe <= max_error_probability]
    if thresholds.size == 0:
        raise ValueError("no UE meets the error-probability cap")
    return float(thresholds.min())
