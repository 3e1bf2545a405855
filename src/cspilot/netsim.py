"""Network-level collision analysis for aggressive pilot reuse.

A group of K_G UEs shares one set of pilot dimensions across N cells.
Each UE lands in a uniformly chosen cell with probability alpha (its
coverage probability) or is in outage otherwise.  A cell holding exactly
one group member — a singleton — trains successfully; cells holding two
or more suffer a pilot collision.  Closed forms for the singleton count
and collision probability drive the multiplexing metrics and the reuse
gain; Monte-Carlo placement cross-validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OfdmParams, _as_count

_MC_CHUNK = 8192


@dataclass(frozen=True)
class NetworkModel:
    """N cells, per-UE coverage probability alpha, and the shared group size."""

    cell_count: int
    coverage_prob: float
    group_size: int

    def __post_init__(self):
        if _as_count(self.cell_count, "cell_count") < 1:
            raise ValueError("cell_count must be positive")
        if not (0 < self.coverage_prob <= 1):
            raise ValueError("coverage_prob must lie in (0, 1]")
        if _as_count(self.group_size, "group_size") < 1:
            raise ValueError("group_size must be positive")


def expected_singletons(model: NetworkModel) -> float:
    """E[number of singleton cells] = alpha K_G (1 - alpha/N)^(K_G - 1)."""
    a, n, k = model.coverage_prob, model.cell_count, model.group_size
    return a * k * (1.0 - a / n) ** (k - 1)


def collision_probability(model: NetworkModel) -> float:
    """Probability a given UE fails to train: 1 - alpha (1 - alpha/N)^(K_G - 1)."""
    a, n, k = model.coverage_prob, model.cell_count, model.group_size
    return 1.0 - a * (1.0 - a / n) ** (k - 1)


def optimal_group_size(model: NetworkModel) -> int:
    """Integer group size maximizing the expected singleton count.

    ``k (1 - q)^(k-1)`` with ``q = alpha / N`` peaks at ``x = -1 / ln(1 - q)``,
    so the best integer is ``f = floor(x)`` or ``f + 1``; the ratio of their
    values is ``(f + 1)(1 - q) / f``.  Ties resolve to the larger size.
    """
    q = model.coverage_prob / model.cell_count
    if q == 1.0:  # one cell, full coverage: any second member collides
        return 1
    f = math.floor(-1.0 / math.log1p(-q))
    return f + 1 if (f + 1) * (1.0 - q) >= f else f


@dataclass(frozen=True)
class RhoMetrics:
    """Simultaneously supportable UEs under the four training schemes."""

    fq: float
    cs: float
    ag_fq: float
    ag_cs: float


def rho_metrics(model: NetworkModel, params: OfdmParams) -> RhoMetrics:
    """Evaluate the four multiplexing metrics.

    Orthogonal schemes divide the WT tones by the per-UE budget (tap_count
    for dense training, pilot_count for sparse training).  Aggressive reuse
    instead packs one group per L = budget + 1 dimensions and harvests the
    expected singletons of every group.
    """
    wt = params.bandwidth_time_product
    a = model.coverage_prob
    singles = expected_singletons(model)
    return RhoMetrics(
        fq=wt * a / params.tap_count,
        cs=wt * a / params.pilot_count,
        ag_fq=wt * singles / (params.tap_count + 1),
        ag_cs=wt * singles / (params.pilot_count + 1),
    )


def reuse_gain(p_out: float, model: NetworkModel, params: OfdmParams) -> float:
    """Aggressive-over-orthogonal ratio rho_ag_cs / rho_cs at outage p_out.

    Equals ``(M K_G / (M+1)) (1 - (1-p_out)/N)^(K_G-1)``; increasing in
    p_out because emptier cells leave more singletons per group.
    """
    if not (0 <= p_out < 1):
        raise ValueError("p_out must lie in [0, 1)")
    m = params.pilot_count
    n, k = model.cell_count, model.group_size
    alpha = 1.0 - p_out
    return (m * k / (m + 1.0)) * (1.0 - alpha / n) ** (k - 1)


def collision_probability_mc(
    model: NetworkModel, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo collision probability with its standard error.

    Each trial places a full group and scores 1 - singletons/K_G, the
    fraction of the group that failed to train.  Placement is vectorized
    in fixed-size chunks; the chunk layout does not affect the stream of
    draws for a given generator.  `trials` must be an integer of at least 1
    (``ValueError`` otherwise).
    """
    if _as_count(trials, "trials") < 1:
        raise ValueError("trials must be at least 1")
    n, k = model.cell_count, model.group_size
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        batch = min(_MC_CHUNK, trials - done)
        covered = rng.random((batch, k)) < model.coverage_prob
        cells = rng.integers(0, n, size=(batch, k))
        flat = (np.arange(batch)[:, None] * n + cells)[covered]
        occupancy = np.bincount(flat, minlength=batch * n).reshape(batch, n)
        singles = (occupancy == 1).sum(axis=1)
        scores = 1.0 - singles / k
        total += float(scores.sum())
        total_sq += float((scores**2).sum())
        done += batch
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    stderr = float(np.sqrt(var / trials))
    return mean, stderr
