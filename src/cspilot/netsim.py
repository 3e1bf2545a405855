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

from .channel import OfdmParams, _as_count, _as_real

# doubles per Monte-Carlo block, 2048 trials at the largest default K_G;
# blocks fill row by row, so it sizes the reused buffers and not p_mc
_MC_BUDGET = 2**17
# the largest N that `collision_probability_mc` takes: its bins 0 .. N fit intp
_MC_MAX_CELLS = np.iinfo(np.intp).max - 1


@dataclass(frozen=True)
class NetworkModel:
    """N cells, per-UE coverage probability alpha, and the shared group size."""

    cell_count: int
    coverage_prob: float
    group_size: int

    def __post_init__(self):
        if _as_count(self.cell_count, "cell_count") < 1:
            raise ValueError("cell_count must be positive")
        if not (0 < _as_real(self.coverage_prob, "coverage_prob") <= 1):
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


def reuse_gain(model: NetworkModel, params: OfdmParams) -> float:
    """Aggressive-over-orthogonal ratio rho_ag_cs / rho_cs of `rho_metrics`.

    Equals ``(M K_G / (M+1)) (1 - alpha/N)^(K_G-1)`` with alpha the model's
    coverage probability; decreasing in alpha (increasing in the outage
    ``1 - alpha``) because emptier cells leave more singletons per group.
    """
    m = params.pilot_count
    a, n, k = model.coverage_prob, model.cell_count, model.group_size
    return (m * k / (m + 1.0)) * (1.0 - a / n) ** (k - 1)


def _singleton_tallies(points, k: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Singleton tallies of ``(N, alpha)`` points over the same `trials` placements of K_G = `k`.

    Entry (i, s) counts the trials that left s singletons at point i.  Per
    block of ``max(1, min(trials, _MC_BUDGET // K_G))`` trials it draws one
    (n, K_G) block of uniforms, row j trial j's UEs, and sorts each row once.
    A point maps the sorted row through its bin map; the map is monotone in
    u (a correctly rounded multiply by a positive scale, a clamp and a
    truncating cast), so the bins come out sorted, and a trial's singleton
    count depends only on the multiset of its bins.
    """
    u = np.empty((max(1, min(trials, _MC_BUDGET // k)), k))
    scaled = np.empty_like(u)
    maps = []  # per point: its scale, bin N as a double, and its bin dtype
    for n, alpha in points:
        # finite for subnormal alpha (0 * scale is 0, not nan); u >= 2^-53 still maps to outage
        scale = min(n / alpha, n * 2.0**53)
        # rounded down above 2^53 so that its cast fits
        outage = float(n) if float(n) <= n else float(np.nextafter(float(n), 0.0))
        maps.append((scale, outage, np.int32 if n < 2**31 - 1 else np.intp))
    # a row: the sentinel -1, a trial's K_G bins, and bin N (outage is never a singleton)
    bins = {dtype: np.empty((len(u), k + 2), dtype=dtype) for dtype in {m[2] for m in maps}}
    for rows in bins.values():
        rows[:, 0] = -1
    edges, ones = np.empty(len(u) * (k + 2) - 1, dtype=bool), np.empty((len(u), k + 2), dtype=bool)
    # how many trials left s singletons, for s = 0..K_G, at each point
    tally = np.zeros((len(points), k + 1), dtype=np.int64)
    for done in range(0, trials, len(u)):
        x = rng.random(out=u[: trials - done])
        x.sort(axis=1)
        b = len(x)
        for i, (scale, outage, dtype) in enumerate(maps):
            y, rows, single = scaled[:b], bins[dtype][:b], ones[:b]
            np.minimum(np.multiply(x, scale, out=y), outage, out=y)  # u >= alpha: outage
            rows[:, 1:-1] = y  # the cast truncates, which is floor as y >= 0
            rows[:, -1] = outage
            # the block as one flat run: bin i + 1 differs from bin i, then from both neighbours
            ne = np.not_equal(rows.ravel()[1:], rows.ravel()[:-1], out=edges[: rows.size - 1])
            np.logical_and(ne[1:], ne[:-1], out=single.ravel()[1:-1])
            # each row's singletons, summed as bytes in the narrowest type that
            # holds K_G (einsum sums short rows several times faster than a reduce)
            count = np.einsum("ij->i", single[:, 1:-1].view(np.uint8), dtype=np.min_scalar_type(k))
            tally[i] += np.bincount(count, minlength=k + 1)
    return tally


def _collision_moments(tally: np.ndarray, k: int, trials: int) -> tuple[float, float]:
    """Mean and standard error of 1 - singletons/K_G from one point's singleton tally."""
    # exact integer moments of the singleton count, so the mean and the
    # variance are each rounded once, whatever the mean
    s1 = sum(s * int(c) for s, c in enumerate(tally))
    s2 = sum(s * s * int(c) for s, c in enumerate(tally))
    mean = (k * trials - s1) / (k * trials)
    stderr = math.sqrt((trials * s2 - s1 * s1) / (trials**3 * k * k))
    return mean, stderr


def collision_probability_mc(
    model: NetworkModel, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo collision probability with its standard error.

    Each trial places a full group and scores 1 - singletons/K_G, the
    fraction of the group that failed to train.  A UE draws one uniform u
    and lands in bin ``min(floor(u N / alpha), N)`` (bin N is outage), the
    inverse CDF of its (N+1)-way law.  A singleton is a bin unequal to both
    neighbours in its trial's sorted row, between the sentinels -1 and N, so
    memory and work do not grow with N.

    Draw order: per block of ``max(1, min(trials, _MC_BUDGET // K_G))``
    trials, one (n, K_G) block of uniforms (row i: trial i's UEs), so trial
    i takes doubles K_G i .. K_G (i+1) of the stream and the call draws
    exactly ``K_G * trials`` doubles and nothing else.  This is the
    one-point case of `_singleton_tallies`.  The `netsim` CLI runs the grid
    case: each of its blocks of trials, drawn from ``(seed, tag, group-size
    index, block index)``, serves every (N, alpha) of its group size, so
    those rows' errors are correlated while each standard error is its own
    row's.

    `trials` must be an integer >= 1 and N + 1 must fit ``intp``
    (``ValueError`` otherwise).
    """
    if (trials := _as_count(trials, "trials")) < 1:  # an int: trials**3 cannot overflow
        raise ValueError("trials must be at least 1")
    n, k = int(model.cell_count), int(model.group_size)
    if n > _MC_MAX_CELLS:
        raise ValueError(f"cell_count must be at most {_MC_MAX_CELLS}, got {n}")
    tally = _singleton_tallies([(n, model.coverage_prob)], k, trials, rng)[0]
    return _collision_moments(tally, k, trials)
