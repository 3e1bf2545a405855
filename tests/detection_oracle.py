"""Reference Monte-Carlo detection error, used by tests only.

The direct reading of the draw order: per chunk of `_MC_CHUNK` trials it
draws one (n, 2M) block ``w`` of standard normals as a new array, forms the
complex received samples ``y = sqrt(1 + gP sent) (w[:, :M] + j w[:, M:]) /
sqrt(2)`` and averages ``|y|^2`` over the antennas.
`cspilot.detection.error_probability_mc` consumes the generator in the same
order and must return the same error probability.
"""

from __future__ import annotations

import numpy as np

from cspilot.detection import _MC_CHUNK, DetectionConfig, optimal_threshold


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
    errors = 0
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
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
