"""The stacked recover-bench chunk against the per-trial reference loop.

`cspilot.cli._recover_chunk` draws and solves the Dantzig program trial by
trial and runs everything else once over the chunk; its per-trial outcomes
must equal, bit for bit, those of `recover_oracle.recover_chunk_per_trial`,
which runs every trial alone through the public single-trial calls.
"""

import math

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
    chunk = cli._recover_chunk(item)
    assert len(chunk) == length
    assert chunk == recover_chunk_per_trial(item)
    assert all(len(trial) == len(cli._RECOVER_METHODS) for trial in chunk)
    assert all(outcome is not None for trial in chunk for outcome in trial)


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
    clean = cli._recover_chunk(item)
    monkeypatch.setattr(recovery, "solve_lp", _cut_solve(4))
    chunk = cli._recover_chunk(item)
    monkeypatch.setattr(recovery, "solve_lp", _cut_solve(4))
    assert chunk == recover_chunk_per_trial(item)
    assert chunk[3][:2] == [None, None]
    assert chunk[3][2:] == clean[3][2:]  # omp and fde_ls still score the trial
    assert chunk[:3] + chunk[4:] == clean[:3] + clean[4:]
