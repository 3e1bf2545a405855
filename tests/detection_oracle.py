"""Reference Monte-Carlo detection error, used by tests only.

The direct reading of the signal model: per chunk of `_MC_CHUNK` trials it
draws the complex channel ``h`` and noise ``z`` as new arrays, forms
``y = sqrt(gP) h sent + z`` and averages ``|y|^2`` over the antennas.
`cspilot.detection.error_probability_mc` consumes the generator in the same
order and must return the same error probability.
"""

from __future__ import annotations

import numpy as np

from cspilot.detection import _MC_CHUNK, DetectionConfig, optimal_threshold


def error_probability_mc_complex(
    config: DetectionConfig, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo equal-prior error probability with explicit h, z draws."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    threshold = config.threshold
    if threshold is None:
        threshold = optimal_threshold(config)
    m = config.antenna_count
    amp = np.sqrt(config.pathloss_power)
    errors = 0
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        sent = ((np.arange(done, done + n) % 2) == 0).astype(float)
        h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        y = amp * h * sent[:, None] + z
        energies = np.mean(np.abs(y) ** 2, axis=1)
        decisions = (energies > threshold).astype(float)
        errors += int(np.sum(decisions != sent))
        done += n
    return errors / trials
