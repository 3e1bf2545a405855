"""Massive-MIMO energy detection of an active UE.

With M_BS antennas, unit-variance noise and a received-power product gP,
the normalized energy ``(1/M_BS) ||y||^2`` concentrates around 1 when the
UE is silent and around 1 + gP when it transmits; a threshold between the
two separates the hypotheses with error probability vanishing in M_BS.

Both energies are Gamma distributed under the Gaussian signal model:
shape M_BS with scale 1/M_BS (silent) or (1+gP)/M_BS (active).  Sharing
the shape, their densities cross at ``(1+gP) ln(1+gP) / gP`` for every
M_BS, and their tails are regularized incomplete gamma functions, so the
threshold and the error probability are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _as_count

# trials per Monte-Carlo chunk; it decides which normals become h and which
# become z, so changing it changes every pe_mc
_MC_CHUNK = 4096


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
        if not math.isfinite(self.pathloss_power) or self.pathloss_power < 0:
            raise ValueError("pathloss_power must be finite and nonnegative")
        if self.threshold is None:
            return
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.threshold <= 1:
            raise ValueError("threshold must exceed 1")
        if self.pathloss_power > 0 and self.threshold >= 1 + self.pathloss_power:
            raise ValueError("threshold must be below 1 + pathloss_power")


def _crossing(gp):
    """Density crossing ``(1+gP) ln(1+gP) / gP``, elementwise for arrays.

    Raises ``ValueError`` unless every crossing lies strictly inside
    (1, 1 + gP); it rounds to 1.0 for gP below about 1e-16.
    """
    gp = np.asarray(gp, dtype=float)
    threshold = (1.0 + gp) * np.log1p(gp) / gp
    if not np.all((1.0 < threshold) & (threshold < 1.0 + gp)):
        raise ValueError("energy densities do not cross inside (1, 1 + gP)")
    return threshold


def _error_probability(m: int, gp, threshold):
    # silent survival plus active CDF of the Gamma(m, 1/m) and
    # Gamma(m, (1+gP)/m) energies, elementwise for arrays; scipy.special is
    # imported here, as it is most of the package's import time and no
    # other function needs it
    from scipy.special import gammainc, gammaincc

    return 0.5 * (gammaincc(m, m * threshold) + gammainc(m, m * threshold / (1.0 + gp)))


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
    """Analytic equal-prior error probability at the preset (or optimal) threshold."""
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    return float(_error_probability(config.antenna_count, config.pathloss_power, threshold))


def error_probability_mc(
    config: DetectionConfig, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo equal-prior error probability with explicit h, z draws.

    Activity alternates deterministically between trials (exact equal
    priors; even trial indices transmit); each trial draws a fresh i.i.d.
    complex Gaussian channel and noise vector, so the active-case energy
    reflects the full signal model rather than the Gamma shorthand.

    Draw order: per chunk of `_MC_CHUNK` trials (the last one shorter), an
    (n, M_BS) block of standard normals each for the real part of h, the
    imaginary part of h, the real part of z and the imaginary part of z, in
    that order, silent trials included.  The chunk size thus decides which
    normals become h and which z, so it is fixed.  The parts are filled in
    place into one reused buffer and the energy is summed there:
    ``(||sqrt(gP) Re h + Re z||^2 + ||sqrt(gP) Im h + Im z||^2) / (2 M_BS)``,
    the ``1/sqrt(2)`` of each part folded into the divisor.

    `trials` must be an integer of at least 1 (``ValueError`` otherwise).
    """
    if _as_count(trials, "trials") < 1:
        raise ValueError("trials must be at least 1")
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    m = config.antenna_count
    amp = math.sqrt(config.pathloss_power)
    buffer = np.empty((4, min(_MC_CHUNK, trials), m))
    errors = 0
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        hr, hi, zr, zi = buffer[:, :n]
        for part in (hr, hi, zr, zi):
            rng.standard_normal(out=part)
        active = slice(done % 2, n, 2)  # the trials with an even global index
        hr[active] *= amp
        hi[active] *= amp
        zr[active] += hr[active]
        zi[active] += hi[active]
        energies = (np.einsum("ij,ij->i", zr, zr) + np.einsum("ij,ij->i", zi, zi)) / (2 * m)
        detected = energies > threshold
        hits = np.count_nonzero(detected[active])
        # misses among the active trials plus false alarms among the silent
        errors += (detected[active].size - hits) + (np.count_nonzero(detected) - hits)
        done += n
    return errors / trials


def min_threshold_for_network(
    pathloss_powers,
    antenna_count: int,
    max_error_probability: float | None = None,
) -> float:
    """Smallest per-UE optimal threshold, optionally restricted to qualified UEs.

    A UE qualifies when its optimal-threshold error probability does not
    exceed ``max_error_probability`` (all UEs qualify when the cap is
    None).  Thresholds and error probabilities are evaluated for all UEs
    at once.  Raises ``ValueError`` on an empty list, on a non-finite or
    non-positive power, or when no UE qualifies.
    """
    powers = np.asarray(list(pathloss_powers), dtype=float)
    if powers.size == 0:
        raise ValueError("pathloss_powers is empty")
    if not np.isfinite(powers).all():
        raise ValueError("all pathloss powers must be finite")
    if (powers <= 0).any():
        raise ValueError("all pathloss powers must be positive")
    if _as_count(antenna_count, "antenna_count") < 1:
        raise ValueError("antenna_count must be at least 1")
    thresholds = _crossing(powers)
    if max_error_probability is not None:
        pe = _error_probability(antenna_count, powers, thresholds)
        thresholds = thresholds[pe <= max_error_probability]
    if thresholds.size == 0:
        raise ValueError("no UE meets the error-probability cap")
    return float(thresholds.min())
