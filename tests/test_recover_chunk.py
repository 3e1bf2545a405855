"""The stacked recover-bench chunk against the per-trial reference loop.

`cspilot.cli._recover_chunk` draws and solves the Dantzig program trial by
trial and runs everything else once over the chunk; its (trial, method)
NMSE and hit arrays must equal, bit for bit, those of
`recover_oracle.recover_chunk_per_trial`, which runs every trial alone
through the public single-trial calls.
"""

import math

import numpy as np
import pytest
from recover_oracle import recover_chunk_per_trial

from cspilot import cli, recovery, simplex
from cspilot.channel import default_params

_SETUPS = {
    "100-designed": (100, "designed"),
    "25-random": (25, "random"),
}


def _item(setup, snr_db, length, seed=3, t0=5):
    tap_count, policy = _SETUPS[setup]
    params = default_params(tap_count=tap_count)
    tones = cli._designed_tones(policy, 1000, tap_count, 20)
    return (seed, params, tones, 1, cli._noise_variance(snr_db), t0, t0 + length)


@pytest.mark.parametrize("length", [1, 7, 10, 13])
@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, math.inf])
@pytest.mark.parametrize("setup", sorted(_SETUPS))
def test_chunk_equals_the_per_trial_loop(setup, snr_db, length):
    item = _item(setup, snr_db, length)
    nmse, hits = cli._recover_chunk(item)
    assert nmse.shape == hits.shape == (length, len(cli._RECOVER_METHODS))
    want_nmse, want_hits = recover_chunk_per_trial(item)
    assert np.array_equal(nmse, want_nmse, equal_nan=True)
    assert np.array_equal(hits, want_hits)
    assert not np.isnan(nmse).any()


def _cut_solve(at):
    """`solve_lp` whose call number `at` (from 1) stops at the iteration limit."""
    calls = []

    def solve(*args):
        calls.append(None)
        if len(calls) == at:
            return simplex.LpResult(x=None, status="iteration-limit", iterations=1)
        return simplex.solve_lp(*args)

    return solve


@pytest.mark.parametrize("setup", sorted(_SETUPS))
def test_failed_solve_mid_chunk_leaves_only_its_dantzig_slots_unscored(setup, monkeypatch):
    item = _item(setup, 10.0, 7)
    clean_nmse, clean_hits = cli._recover_chunk(item)
    monkeypatch.setattr(recovery, "solve_lp", _cut_solve(4))
    nmse, hits = cli._recover_chunk(item)
    monkeypatch.setattr(recovery, "solve_lp", _cut_solve(4))
    want_nmse, want_hits = recover_chunk_per_trial(item)
    assert np.array_equal(nmse, want_nmse, equal_nan=True)
    assert np.array_equal(hits, want_hits)
    failed = np.zeros(nmse.shape, dtype=bool)
    failed[3, :2] = True  # the fourth trial's two Dantzig slots
    assert np.array_equal(np.isnan(nmse), failed)
    assert not hits[3, :2].any()
    # omp and fde_ls still score the trial, and every other slot is unchanged
    assert np.array_equal(nmse[~failed], clean_nmse[~failed])
    assert np.array_equal(hits[~failed], clean_hits[~failed])
