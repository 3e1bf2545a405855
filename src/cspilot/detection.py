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

# trials per Monte-Carlo chunk; it sizes the reused draw buffer only: blocks
# are filled row by row, so trial i takes normals 2*M_BS*i .. 2*M_BS*(i+1)
# of the stream whatever the chunk, and pe_mc does not depend on it
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
    """Monte-Carlo equal-prior error probability from explicit Gaussian draws.

    Activity alternates deterministically between trials (exact equal
    priors; even trial indices transmit).  Each trial draws a fresh received
    sample per antenna, ``CN(0, 1 + gP)`` when active and ``CN(0, 1)`` when
    silent, and sums its 2 M_BS squared real parts; it never draws the Gamma
    law it checks.  The only step taken on trust is that the channel and
    noise add up to one Gaussian, ``CN(0, gP) + CN(0, 1) = CN(0, 1 + gP)``.

    Draw order: per chunk of `_MC_CHUNK` trials (the last one shorter), one
    (n, 2 M_BS) block of standard normals, row i holding trial i's real
    parts then its imaginary parts; the call draws exactly
    ``2 M_BS * trials`` normals and nothing else.  The energy of a row is
    ``||w||^2 / (2 M_BS)``, the ``1/sqrt(2)`` of each part folded into the
    divisor.  On active trials it is multiplied by ``1 + gP``, which gives
    the energy of ``sqrt(1 + gP) (Re + j Im) / sqrt(2)`` with one multiply
    per trial in place of one per sample.

    `trials` must be an integer of at least 1 (``ValueError`` otherwise).
    """
    if _as_count(trials, "trials") < 1:
        raise ValueError("trials must be at least 1")
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    m = config.antenna_count
    buffer = np.empty((min(_MC_CHUNK, trials), 2 * m))
    errors = 0
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        w = rng.standard_normal(out=buffer[:n])
        energies = np.einsum("ij,ij->i", w, w) / (2 * m)
        active = slice(done % 2, n, 2)  # the trials with an even global index
        energies[active] *= 1.0 + config.pathloss_power
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
    non-positive power, on a non-finite cap, or when no UE qualifies.
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
    if max_error_probability is not None and not math.isfinite(max_error_probability):
        raise ValueError(
            f"max_error_probability must be finite or None, got {max_error_probability!r}"
        )
    thresholds = _crossing(powers)
    if max_error_probability is not None:
        pe = _error_probability(antenna_count, powers, thresholds)
        thresholds = thresholds[pe <= max_error_probability]
    if thresholds.size == 0:
        raise ValueError("no UE meets the error-probability cap")
    return float(thresholds.min())
