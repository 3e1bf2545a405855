"""Reference Monte-Carlo detection errors, used by tests only.

`error_probability_mc_loop` is the direct reading of the kernel's draw
order: per block of ``max(1, _MC_BUDGET // M)`` trials (the budget read
at call time) it draws one (n, M) block of standard exponentials as a new
array, then walks the trials one at a time, averaging a row over the
antennas and scaling it by ``1 + gP`` when the trial transmits.
`cspilot.detection.error_probability_mc` consumes the generator in the
same order and must return the same error probability.

`error_counts_loop` reads a whole grid the same way: it draws one
(trials, max M) matrix of standard exponentials, then for each
`DetectionConfig` point (its threshold preset) walks the trials one at a
time, averaging the first M draws of the row.  `cspilot.detection.error_counts` consumes the
generator as that one draw does and must return the same error counts.
The kernel adds a row's columns segment by segment, between consecutive
antenna counts, so an energy may differ from this direct sum in its last
bit; the tests assert equal counts at seeds where no decision sits that
close to its threshold.

`error_probability_mc_complex` shares nothing with the kernel but the
alternating activity: per chunk it draws an (n, 2M) block ``w`` of standard
normals, forms the complex received samples ``y = sqrt(1 + gP sent)
(w[:, :M] + j w[:, M:]) / sqrt(2)`` and averages ``|y|^2`` over the
antennas, so it agrees with the kernel in distribution only.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from cspilot import detection
from cspilot.detection import DetectionConfig, optimal_threshold


def error_probability_mc_loop(
    config: DetectionConfig, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo equal-prior error probability, one trial at a time."""
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    m = config.antenna_count
    chunk = max(1, detection._MC_BUDGET // m)
    errors = 0
    for start in range(0, trials, chunk):
        block = rng.standard_exponential((min(chunk, trials - start), m))
        for i, row in enumerate(block):
            sent = (start + i) % 2 == 0
            energy = row.sum() / m
            if sent:
                energy *= 1.0 + config.pathloss_power
            errors += bool(energy > threshold) != sent
    return errors / trials


def error_counts_loop(points, trials: int, rng: np.random.Generator) -> list[int]:
    """Monte-Carlo error counts of each `DetectionConfig` point, one trial at a time."""
    draws = rng.standard_exponential((trials, max(p.antenna_count for p in points)))
    counts = []
    for m, gp, threshold in map(astuple, points):
        errors = 0
        for i, row in enumerate(draws):
            sent = i % 2 == 0
            energy = row[:m].sum() / m
            if sent:
                energy *= 1.0 + gp
            errors += bool(energy > threshold) != sent
        counts.append(errors)
    return counts


def error_probability_mc_complex(
    config: DetectionConfig, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo equal-prior error probability from complex received samples."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    m = config.antenna_count
    chunk = max(1, detection._MC_BUDGET // m)
    errors = 0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        sent = ((np.arange(done, done + n) % 2) == 0).astype(float)
        w = rng.standard_normal((n, 2 * m))
        y = np.sqrt(1.0 + config.pathloss_power * sent)[:, None] * (
            w[:, :m] + 1j * w[:, m:]
        ) / np.sqrt(2)
        energies = np.mean(np.abs(y) ** 2, axis=1)
        decisions = (energies > threshold).astype(float)
        errors += int(np.sum(decisions != sent))
        done += n
    return errors / trials
