"""Pilot tone placement: mutual coherence and low-coherence designed sets.

Uniformly random tone subsets give a partial-DFT sensing matrix whose worst
column coherence hovers near 0.45 for 20 tones — close to the greedy/l1
phase transition for 4-sparse channels, so a small fraction of random
instances defeats any sparse solver.  Benchmarks that assert exact support
recovery therefore use tone sets designed to minimize mutual coherence.

The designed sets below were found offline by simulated annealing over
single-tone swaps: starting from a random 20-tone subset, each step moves
one tone to a random unused tone and keeps the move if it lowers
`mutual_coherence` or, with a probability that falls as the temperature
decays linearly, if it raises it; the best set visited was kept.  They are
frozen here so results are reproducible without re-running the search.
"""

from __future__ import annotations

import numpy as np

from .channel import _as_count, _as_tones

# 20 tones of 1000, minimizing coherence over 24 delay lags (mu = 0.1618).
# For a 25-tap dictionary this is well inside the exact-recovery regime.
DESIGNED_TONES_25 = np.array(
    [21, 53, 83, 161, 188, 306, 339, 380, 416, 454,
     502, 532, 584, 614, 650, 695, 733, 812, 925, 991]
)

# 20 tones of 1000, minimizing coherence over 99 delay lags (mu = 0.3043).
DESIGNED_TONES_100 = np.array(
    [77, 109, 116, 154, 168, 217, 426, 455, 500, 509,
     698, 705, 829, 855, 862, 880, 930, 947, 965, 988]
)

# the frozen set of each (wt, tap_count, pilot_count) point that has one
DESIGNED_TONES = {
    (1000, 25, 20): DESIGNED_TONES_25,
    (1000, 100, 20): DESIGNED_TONES_100,
}


def mutual_coherence(tone_set, tap_count: int, wt: int) -> float:
    """Largest normalized inner product between distinct sensing-matrix columns.

    Columns d1, d2 of the partial-DFT matrix correlate through the lag
    Delta = d1 - d2 only, so the maximum runs over Delta in [1, tap_count).
    Raises ``ValueError`` unless `tone_set` is a non-empty set of distinct
    integer subcarriers in ``[0, wt)``, `wt` an integer and ``tap_count >= 2``.
    """
    tones = _as_tones(tone_set)
    if not tones.size:
        raise ValueError("tone_set must not be empty")
    if tones.max() >= _as_count(wt, "wt"):
        raise ValueError(f"tone indices must lie in [0, {wt})")
    if _as_count(tap_count, "tap_count") < 2:
        raise ValueError(f"need at least 2 taps for a pair of columns, got {tap_count!r}")
    lags = np.arange(1, tap_count)[:, None]
    sums = np.exp(-2j * np.pi * lags * tones[None, :] / wt).sum(axis=1)
    return float(np.abs(sums).max() / tones.size)

