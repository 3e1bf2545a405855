"""The benchmark's workloads and the seeded inputs each one runs.

Every workload is a closed loop with one caller: each step is a call to
``cspilot.cli.main`` or to a public library function, and the next step
starts only after the previous one returned.  The workload seed reaches the
program as ``--seed`` or as the generated inputs, nothing else.

A step is a plain dict so that the child interpreter can report it back
with its outcome and the parent can check that outcome against its oracle.
"""

from __future__ import annotations

RECOVER_TRIALS = 100  # recover-bench's default trial count per SNR point
# recover-25-random runs four times the default trials: its ~1 s calls are
# short enough for the bursts of a shared machine to decide their median,
# and 400 trials per SNR point also tighten its support-rate checks
RANDOM_TRIALS = 400

# threshold design: UE path-loss powers drawn log-uniformly over two
# decades around gP = 1, so the error cap disqualifies some UEs at every
# antenna count and the result is not simply the smallest UE's threshold
THRESHOLD_UES = 100
THRESHOLD_ANTENNAS = (32, 64, 128)
THRESHOLD_CAP = 1e-3
THRESHOLD_TAG = 5  # keeps this stream apart from the CLI's tags 1-4


def _cli(name, experiment, seed, workers, rows, sets=(), **expect):
    argv = [experiment, "--seed", str(seed), "--workers", str(workers)]
    for item in sets:
        argv += ["--set", item]
    return {"kind": "cli", "name": name, "experiment": experiment, "argv": argv,
            "rows": rows, **expect}


def _recover_100(seed, workers):
    # The paper's working point: 100 taps, S=4, M=20, designed tones, default
    # config.  The simplex dominates (~70% of the time, ~27 pivots per solve)
    # and fde_ls_recover's SVD follows.  At --workers 2 the CLI's threads
    # and OpenBLAS's threads compete for the cores, the only workload where
    # they do.  Solver, prepare-once and process-pool changes show here.
    return [_cli("recover", "recover-bench", seed, workers, rows=16)]


def _recover_25_random(seed, workers):
    # A small LP (~14 pivots on a 101-row tableau) with a fresh random tone
    # set every trial, so a cache keyed by tone set always misses.  Single
    # process: the CLI fan-out is bypassed.  Work around the simplex (LP
    # embedding, stepwise debias, channel calls, the CLI loop) outweighs
    # it here, so a simplex-only speed-up should move this workload little.
    return [
        _cli(
            "recover",
            "recover-bench",
            seed,
            1,
            rows=16,
            sets=("tap_count=25", "tone_policy=random", f"trials={RANDOM_TRIALS}"),
        )
    ]


def _sweeps(seed, workers):
    # No recovery or simplex work: the prediction for any recovery-side
    # change is no change.  Carries the detection (scipy.stats frozen laws,
    # Monte-Carlo energies), pilot-codebook (linear-scan decode) and
    # netsim (Monte-Carlo placement) layers.
    import numpy as np

    rng = np.random.default_rng([seed, THRESHOLD_TAG])
    powers = [float(p) for p in 10.0 ** rng.uniform(-1.0, 1.0, size=THRESHOLD_UES)]
    return [
        _cli("detect", "detect-sweep", seed, workers, rows=9, trials=100_000),
        _cli("netsim", "netsim", seed, workers, rows=36),
        _cli("codebook", "codebook-verify", seed, 1, rows=3, sets=("l=3", "k=1771")),
        *(
            {"kind": "threshold", "name": f"threshold-{m}", "powers": powers,
             "antennas": m, "cap": THRESHOLD_CAP}
            for m in THRESHOLD_ANTENNAS
        ),
    ]


# name -> (function making the steps, trials per run for trials_per_s or
# None); the recover runs score the 4 default SNR points
WORKLOADS = {
    "recover-100": (_recover_100, 4 * RECOVER_TRIALS),
    "recover-25-random": (_recover_25_random, 4 * RANDOM_TRIALS),
    "sweeps": (_sweeps, None),
}

DEFAULT_WORKERS = 2  # the CLI fan-out width used where a step allows it


def make_steps(workload: str, seed: int, single: bool = False) -> list[dict]:
    """The steps of `workload` for `seed`; `single` forces ``--workers 1``."""
    make = WORKLOADS[workload][0]
    return make(seed, 1 if single else DEFAULT_WORKERS)
