"""Reference recover-bench chunk, used by tests only.

One trial at a time through the public single-trial calls, the direct
reading of `cspilot.cli._recover_chunk`: each trial draws its channel, its
tones when they are random, then the noise of y and of y_full, and is
scored method by method into the chunk's two (trial, method) arrays.  The
stacked chunk must give equal arrays.
"""

from __future__ import annotations

import numpy as np

from cspilot.channel import (
    build_sensing_matrix,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from cspilot.cli import _TAG_RECOVER, _bench_matrices
from cspilot.recovery import dantzig_recover, fde_ls_recover, nmse, omp_recover


def _score(h, estimate, support):
    """``(nmse, hit)`` of one estimate of `h`; a hit is the exact support."""
    return nmse(h.taps, estimate), np.array_equal(np.sort(support), h.support)


def recover_chunk_per_trial(item):
    """`cspilot.cli._recover_chunk`'s ``(nmse, hits)`` for the same item, one trial at a time."""
    seed, params, tones, si, noise_var, t0, t1 = item
    comb, designed = _bench_matrices(params, tones)
    trials = []
    for t in range(t0, t1):
        rng = np.random.default_rng([seed, _TAG_RECOVER, si, t])
        h = sample_channel(params, rng)
        X = designed
        if X is None:
            X = build_sensing_matrix(select_pilot_tones(params, rng), params)
        y = synthesize_measurement(X, h, noise_var, rng)
        res = dantzig_recover(y, X, noise_var)
        omp_res = omp_recover(y, X, params.sparsity)
        y_full = synthesize_measurement(comb, h, noise_var, rng)
        fde_res = fde_ls_recover(y_full, comb)
        scores = [(np.nan, False)] * 2  # a failed solve's NaN estimates are not scored
        if res.solver_status == "optimal":
            scores = [
                _score(h, res.raw_estimate, res.raw_support),
                _score(h, res.estimate, res.recovered_support),
            ]
        scores += [_score(h, r.estimate, r.recovered_support) for r in (omp_res, fde_res)]
        trials.append(scores)
    table = np.array(trials, dtype=float)  # (trial, method, nmse or hit)
    return table[..., 0], table[..., 1] == 1
