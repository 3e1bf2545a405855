"""Batch experiment runner with seeded, byte-reproducible CSV output.

``cspilot <experiment> [--config FILE] [--seed N] [--out FILE]
[--set key=value ...] [--workers N]``

Config files are flat ``key=value`` lines (``#`` comments allowed);
``--set`` overrides win over the file, which wins over defaults.  Each
experiment's table gives every key a default and a parser of its domain;
unknown keys are rejected.  Each value is parsed, and each input that ties
keys together built, once, before the experiment starts; a failure there
exits 2, and a failure of the run itself exits 1 with its traceback.
``--seed`` is an integer >= 0, ``--workers`` one >= 1.
Output is RFC-4180-style CSV (UTF-8, LF) preceded by ``#``-prefixed lines:
tool version, seed, and a SHA-256 digest of the resolved config strings.

The runners hold config, I/O and fan-out: the work items call each layer's
public batch function (`error_counts`, `singleton_tallies` and
`collision_moments`, `synthesize_measurements`, `omp_estimates`,
`fde_ls_estimates`, `support_mask`, `nmse`), which checks its inputs once
per item; detect-sweep's points and their thresholds, and recover-bench's
comb and designed-tone matrices, are built once, as the config resolves.

Randomness is derived from ``(seed, experiment tag, block index)`` per
detect-sweep block of trials (a block draws each trial's antennas once for
the whole grid and returns its error counts), from ``(seed, tag, group-size
index, block index)`` per netsim block of trials (a block draws and sorts
each trial's UEs once for every (N, alpha) point of its group size and
returns their singleton tallies, so the rows of one group size share draws
and their errors are correlated; each p_stderr is still its own row's
standard error), and per recover-bench trial from ``(seed, tag, SNR index,
trial index)``.
recover-bench splits each SNR into chunks of trials, each chunk returns
(trial, method) arrays of NMSE and support hits, and each mean folds its
SNR's trials left to right in trial order.
``--workers N`` runs the work items on the calling process and N - 1
forks, item i on worker i mod N, and places the results by index; ``main``
pins the BLAS to one thread before the first experiment and keeps it for
the process.  Output bytes are therefore identical for any ``--workers``
value and any BLAS thread setting.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import math
import os
import pickle
import signal
import sys
import traceback
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    OfdmParams,
    build_sensing_matrices,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurements,
)
from .detection import DetectionConfig, error_counts, error_probability, optimal_threshold
from .netsim import (
    MC_MAX_CELLS,
    NetworkModel,
    collision_moments,
    collision_probability,
    rho_metrics,
    singleton_tallies,
)
from .pilots import build_codebook, choose_l, decode_energy_vectors, superpose
from .recovery import (
    comb_tone_set,
    dantzig_recover,
    fde_ls_estimates,
    nmse,
    omp_estimates,
    support_mask,
)
from .tones import DESIGNED_TONES

# experiment tags keep per-item random streams disjoint across experiments
_TAG_DETECT = 1
_TAG_RECOVER = 2
_TAG_CODEBOOK = 3
_TAG_NETSIM = 4

# with g*P = 0 the two hypotheses coincide and no threshold is better than
# any other; the sweep pins this arbitrary value so rows stay well defined
_GP_ZERO_THRESHOLD = 1.5

# trials per detect-sweep and netsim work item; even, so that every
# detect-sweep block starts on a transmitting trial and a trial's activity
# is that of its global index
_MC_BLOCK = 10_000

# trials per recover-bench work item, and the width of its stacks: small
# enough that the slow noiseless SNR spreads over the workers, large enough
# that the work batched over the chunk (matrices, measurements, OMP, dense
# LS, scoring) runs once per ten trials, not once per trial
_TRIAL_CHUNK = 10


class ConfigError(Exception):
    pass


def _config_lines(path: str) -> list[tuple[str, str]]:
    """``("path:lineno", line)`` of each config file line that is not blank or a ``#`` comment."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = [(f"{path}:{lineno}", line.strip()) for lineno, line in enumerate(fh, start=1)]
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    return [(where, line) for where, line in lines if line and not line.startswith("#")]


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() drops numpy's type from the repr (np.float64 is a float)
        return repr(float(value))
    return str(value)


def _at_least(low: int):
    """Parser of an integer >= `low`; argparse names it by `__name__` in its errors."""

    def parse(text: str) -> int:
        value = int(text)  # refuses "", "1.5", "nan" and "inf"
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value

    parse.__name__ = f"integer >= {low}"
    return parse


_count = _at_least(1)


def _listed(parse_one, inside=lambda value: True, domain: str = ""):
    """Parser of a non-empty comma-separated list of `parse_one` values that satisfy `inside`."""

    def parse(text: str) -> list:
        values = [parse_one(entry) for entry in text.split(",")]  # an empty entry raises
        if not all(map(inside, values)):
            raise ValueError(f"every entry must be finite and {domain}")
        return values

    return parse


def _tone_policy(text: str) -> str:
    if text not in ("designed", "random"):
        raise ValueError("must be designed or random")
    return text


def _detect_points(antenna_counts, pathloss_powers) -> list[DetectionConfig]:
    """Detect-sweep's grid, each point at its `optimal_threshold` (the pinned one at gP = 0).

    The density crossing does not depend on M_BS: one per gP.
    """
    thresholds = [
        optimal_threshold(DetectionConfig(1, gp)) if gp > 0 else _GP_ZERO_THRESHOLD
        for gp in pathloss_powers
    ]
    return [
        DetectionConfig(m, gp, threshold)
        for m in antenna_counts
        for gp, threshold in zip(pathloss_powers, thresholds)
    ]


def _codebook(k: int, l_prime: int, l: int | None):
    """Codebook-verify's book; ``l`` None (empty) means the smallest l that fits k users."""
    return build_codebook(k, l_prime, l or choose_l(k, l_prime))


# config key of each OfdmParams field, in field order, at the standard working point
_OFDM_KEYS = {
    key: (str(value), _count)
    for key, value in zip(("wt", "tap_count", "sparsity", "pilot_count"), astuple(default_params()))
}
_PARAMS = ("params", tuple(_OFDM_KEYS), OfdmParams)  # the input those keys build

# fig3's metrics read no sparsity: its params hold the least, which any pilot count admits
_RHO_KEYS = {key: _OFDM_KEYS[key] for key in ("wt", "tap_count", "pilot_count")}
_RHO_PARAMS = ("params", tuple(_RHO_KEYS), lambda wt, taps, pilots: OfdmParams(wt, taps, 1, pilots))


# ---------------------------------------------------------------------------
# experiment runners: each returns (header, rows, failures)


def _run_fig3(cfg, seed, workers):
    params, rows = cfg["params"], []
    for p_out in cfg["p_outs"]:
        alpha = 1.0 - p_out
        for k_g in range(1, cfg["kg_max"] + 1):
            model = NetworkModel(cell_count=cfg["cells"], coverage_prob=alpha, group_size=k_g)
            rho = rho_metrics(model, params)
            rows.append([k_g, p_out, rho.fq, rho.ag_fq, rho.cs, rho.ag_cs])
    return ["k_g", "p_out", "rho_fq", "rho_ag_fq", "rho_cs", "rho_ag_cs"], rows, 0


def _detect_block(item):
    seed, block, trials, points = item
    return error_counts(points, trials, np.random.default_rng([seed, _TAG_DETECT, block]))


def _run_detect_sweep(cfg, seed, workers):
    trials, points = cfg["trials"], cfg["points"]
    items = [
        (seed, block, min(_MC_BLOCK, trials - t0), points)
        for block, t0 in enumerate(range(0, trials, _MC_BLOCK))
    ]
    rows = []
    for point, errors in zip(points, sum(_fan_out(_detect_block, items, workers)).tolist()):
        pe = errors / trials
        stderr = float(np.sqrt(pe * (1.0 - pe) / trials))
        rows.append([*astuple(point), error_probability(point), pe, stderr])
    return ["m_bs", "g_p", "threshold", "pe_analytic", "pe_mc", "pe_stderr"], rows, 0


def _designed_tones(policy: str, *point: int):
    """The frozen tones at ``(wt, tap_count, pilot_count)``, or None for random tones."""
    if policy == "random":
        return None
    if point not in DESIGNED_TONES:
        points = " or ".join(map(str, DESIGNED_TONES))
        raise ValueError(f"frozen tones only at {points}, not {point}; random tones fit any point")
    return DESIGNED_TONES[point]


def _bench_matrices(params: OfdmParams, tones):
    """The comb matrix and the matrix of the designed `tones` (None for random).

    Both are read-only and so are the operators they cache, so every chunk of
    a run shares them.
    """
    designed = None if tones is None else build_sensing_matrix(tones, params)
    return build_sensing_matrix(comb_tone_set(params), params), designed


def _noise_variance(snr_db: float) -> float:
    """Per-tone noise variance at `snr_db` for unit-energy pilots; only +inf dB means noiseless."""
    if snr_db == math.inf:
        return 0.0
    try:
        noise_var = 1.0 / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # the power left the float range
        noise_var = math.nan
    if not (math.isfinite(noise_var) and noise_var > 0):
        raise ValueError(
            f"entry {snr_db!r} dB has no finite, positive noise variance "
            "(only inf means noiseless)"
        )
    return noise_var


def _snrs(text: str) -> list[tuple[float, float]]:
    """``(snr_db, noise variance)`` of each entry of a non-empty comma-separated list."""
    return [(snr_db, _noise_variance(snr_db)) for snr_db in map(float, text.split(","))]


# the order of the method columns of _recover_chunk's arrays
_RECOVER_METHODS = ("dantzig", "dantzig+debias", "omp", "fde_ls")


def _recover_chunk(item):
    """``(nmse, hits)`` of trials ``t0 <= t < t1`` at one SNR, two (n, 4) arrays.

    Row i is trial ``t0 + i``, and column j method j of `_RECOVER_METHODS`:
    its NMSE in dB and whether its support is exact.  A trial whose LP solve
    was not optimal holds NaN and no hit in both Dantzig columns, so a failed
    solve is never scored.  Each trial draws its channel, its tones when they
    are random, and the noise of y and of y_full from its own generator, and
    runs its own Dantzig solve; the random-tone matrices, the measurements,
    OMP, dense LS and the scoring each run once over the chunk's stack of
    trials.  The item carries the run's `_bench_matrices` pair, the comb
    matrix and the designed one, so the operators they cache serve every
    trial.
    """
    seed, params, (comb, designed), si, noise_var, t0, t1 = item
    rngs = [np.random.default_rng([seed, _TAG_RECOVER, si, t]) for t in range(t0, t1)]
    channels = [sample_channel(params, rng) for rng in rngs]
    X = designed
    if designed is None:
        X = build_sensing_matrices([select_pilot_tones(params, rng) for rng in rngs], params)
    Y = synthesize_measurements(X, channels, noise_var, rngs)
    Y_full = synthesize_measurements(comb, channels, noise_var, rngs)
    H, n, d = np.array([h.taps for h in channels]), len(channels), params.tap_count

    # a failed solve keeps a zero estimate, overwritten by NaN below, and an
    # empty support, which is never a hit: every channel has a nonzero tap
    estimates = np.zeros((n, len(_RECOVER_METHODS), d), dtype=complex)
    supports = np.zeros(estimates.shape, dtype=bool)
    solved = np.ones(n, dtype=bool)
    for i in range(n):
        res = dantzig_recover(Y[i], X if designed is not None else X[i], noise_var)
        if res.solver_status == "optimal":
            estimates[i, :2] = res.raw_estimate, res.estimate
            supports[i, 0, res.raw_support] = supports[i, 1, res.recovered_support] = True
        else:
            solved[i] = False
    estimates[:, 2], selected = omp_estimates(Y, X, params.sparsity)
    supports[np.arange(n)[:, None], 2, selected] = True
    estimates[:, 3] = fde_ls_estimates(Y_full, comb)
    supports[:, 3] = support_mask(estimates[:, 3])
    # C order: nmse's copy of a broadcast view would put the methods
    # innermost and sum each row's taps in another order than one trial's
    truth = np.repeat(H[:, None], len(_RECOVER_METHODS), axis=1)
    scores = nmse(truth, estimates)
    scores[~solved, :2] = math.nan
    return scores, (supports == (truth != 0)).all(axis=-1)


def _run_recover_bench(cfg, seed, workers):
    params, matrices, trials, snrs = cfg["params"], cfg["matrices"], cfg["trials"], cfg["snr_dbs"]
    items = [
        (seed, params, matrices, si, noise_var, t0, min(t0 + _TRIAL_CHUNK, trials))
        for si, (_, noise_var) in enumerate(snrs)
        for t0 in range(0, trials, _TRIAL_CHUNK)
    ]
    chunks = _fan_out(_recover_chunk, items, workers)
    # (SNR, trial, method) arrays; an unscored trial reads NaN and no hit
    nmse, hits = (np.concatenate(part).reshape(len(snrs), trials, -1) for part in zip(*chunks))
    scored = ~np.isnan(nmse)
    # a left fold in trial order, the same for every chunking, adding 0.0 per
    # unscored trial (a sum over the trial axis may add pairwise)
    totals = np.cumsum(np.where(scored, nmse, 0.0), axis=1)[:, -1]
    counts = scored.sum(axis=1)
    with np.errstate(invalid="ignore"):  # a method with no scored trial reads NaN
        means, rates = totals / counts, hits.sum(axis=1) / counts
    rows = [
        [snr_db, name, mean, rate, params.tap_count if name == "fde_ls" else params.pilot_count]
        for (snr_db, _), snr_means, snr_rates in zip(snrs, means.tolist(), rates.tolist())
        for name, mean, rate in zip(_RECOVER_METHODS, snr_means, snr_rates)
    ]
    header = ["snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used"]
    # one failure per failed LP solve; its trial is left out of both Dantzig rows
    return header, rows, np.count_nonzero(~scored[..., 0])


def _sampled_pairs(k: int, rng: np.random.Generator) -> np.ndarray:
    """10 000 distinct UE pairs ``i < j`` below k, as the sorted rows of a (10000, 2) array.

    Each block draws as many (i, j) rows as pairs are still missing, so no
    draw lands past the one that completes the set: the pairs, and the
    draws consumed, are those of one ``rng.integers(0, k, size=2)`` per pair
    drawn until 10 000 distinct ones with i != j are found.
    """
    codes = np.empty(0, dtype=np.int64)  # i * k + j of each pair
    while codes.size < 10_000:
        i, j = rng.integers(0, k, size=(10_000 - codes.size, 2)).T
        keep = i != j
        codes = np.union1d(codes, np.minimum(i, j)[keep] * k + np.maximum(i, j)[keep])
    return np.column_stack(np.divmod(codes, k))


def _run_codebook_verify(cfg, seed, workers):
    book = cfg["book"]
    k = book.user_count
    # row 0 is the empty pattern, row 1 + i UE i alone
    kinds, ue_indices = decode_energy_vectors(
        np.vstack([np.zeros(book.dimension, dtype=np.uint8), book.columns.T]), book
    )
    rows = [["empty", 1, int(kinds[0] != "empty")]]
    single_fail = np.count_nonzero((kinds[1:] != "identified") | (ue_indices[1:] != np.arange(k)))
    rows.append(["single", k, int(single_fail)])

    if k > 300:
        pairs = _sampled_pairs(k, np.random.default_rng([seed, _TAG_CODEBOOK, 0]))
    else:
        pairs = np.column_stack(np.triu_indices(k, 1))
    failures = 0
    for start in range(0, len(pairs), k):  # blocks of k pairs, no larger than the singles
        kinds, _ = decode_energy_vectors(superpose(pairs[start : start + k], book), book)
        failures += np.count_nonzero(kinds != "collision")
    rows.append(["pair", len(pairs), failures])

    return ["check", "cases", "failures"], rows, sum(row[2] for row in rows)


def _netsim_block(item):
    seed, size, block, trials, models = item
    rng = np.random.default_rng([seed, _TAG_NETSIM, size, block])
    return singleton_tallies(models, trials, rng)


def _run_netsim(cfg, seed, workers):
    trials, cells, sizes, alphas = cfg["trials"], cfg["cells"], cfg["group_sizes"], cfg["alphas"]
    # per group size, its (N, alpha) models in row order
    groups = [[NetworkModel(n, a, k) for n in cells for a in alphas] for k in sizes]
    starts = range(0, trials, _MC_BLOCK)
    items = [
        (seed, size, block, min(_MC_BLOCK, trials - t0), models)
        for size, models in enumerate(groups) for block, t0 in enumerate(starts)
    ]
    tallies = _fan_out(_netsim_block, items, workers)
    # per group size, its blocks' tallies summed in block order, a row per model
    totals = [sum(tallies[i : i + len(starts)]) for i in range(0, len(items), len(starts))]
    rows = []
    for ni in range(len(cells)):
        at_n = slice(ni * len(alphas), (ni + 1) * len(alphas))  # the models of N = cells[ni]
        for models, total in zip(groups, totals):
            for model, tally in zip(models[at_n], total[at_n]):
                n, a, k = astuple(model)
                moments = collision_moments(tally)
                rows.append([n, k, a, trials, collision_probability(model), *moments])
    header = ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"]
    return header, rows, 0


def _fan_out(work, items, workers):
    """``[work(item) for item in items]``, on the calling process and ``workers - 1`` forks.

    Item i runs on worker ``i % workers``: worker 0 is the calling process,
    each other worker a forked child that runs its share in item order and
    sends its results back pickled on its own pipe.  The results are placed
    by index, so neither their order nor any item's input depends on
    `workers`.  A child's exception is raised here with its type and message,
    caused by an error carrying the child's traceback; a child that exits
    without a reply raises `RuntimeError`.  No partial result is returned,
    and no child is left running when this returns or raises.
    """
    workers = max(1, min(workers, len(items)))
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                # fork, not spawn: the children inherit the loaded modules and
                # the one BLAS thread set in main
                pid = os.fork()
                if pid == 0:
                    _fan_out_child(work, items[w::workers], write)
            except BaseException:
                os.close(read)
                raise
            finally:
                os.close(write)  # so that EOF on `read` means the child is done
            children.append((pid, open(read, "rb")))
        results = [None] * len(items)
        results[::workers] = [work(item) for item in items[::workers]]
        for w in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status != 0 or not reply:
                raise RuntimeError(f"fan-out worker {w} exited without a reply, wait status {status}")
            ok, value, remote = pickle.loads(reply)
            if not ok:
                raise value from RuntimeError(f"fan-out worker {w} raised:\n{remote}")
            results[w::workers] = value
        return results
    except BaseException:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        raise


def _fan_out_child(work, share, write):
    """Write ``(True, results, None)`` or ``(False, exception, traceback)`` to `write`, and exit.

    ``os._exit`` neither flushes the parent's buffers nor returns into the
    caller's stack; status 0 means the whole reply was written.
    """
    status = 1
    try:
        try:
            reply = pickle.dumps((True, [work(item) for item in share], None))
        except BaseException as exc:  # the parent re-raises it
            reply = pickle.dumps((False, exc, traceback.format_exc()))
        with open(write, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


@dataclass(frozen=True)
class _Experiment:
    runner: object
    keys: dict  # config key -> (default string, parser of a string to its value)
    # (name, keys, builder) of each input built from several keys, or from the
    # inputs before it; a builder's ValueError is a ConfigError naming its keys
    inputs: tuple = ()


EXPERIMENTS = {
    "fig3": _Experiment(
        _run_fig3,
        {
            **_RHO_KEYS,
            "cells": ("16", _count),
            "kg_max": ("100", _count),
            "p_outs": ("0,0.3", _listed(float, lambda p_out: 0 <= p_out < 1, "in [0, 1)")),
        },
        (_RHO_PARAMS,),
    ),
    "detect-sweep": _Experiment(
        _run_detect_sweep,
        {
            "antenna_counts": ("32,64,128", _listed(_count)),
            "pathloss_powers": ("0,2,10", _listed(float, lambda gp: 0 <= gp < math.inf, ">= 0")),
            "trials": ("100000", _count),
        },
        (("points", ("antenna_counts", "pathloss_powers"), _detect_points),),
    ),
    "recover-bench": _Experiment(
        _run_recover_bench,
        {
            **_OFDM_KEYS,
            "trials": ("100", _count),
            "snr_dbs": ("0,10,20,inf", _snrs),
            "tone_policy": ("designed", _tone_policy),
        },
        (
            _PARAMS,
            ("tones", ("tone_policy", "wt", "tap_count", "pilot_count"), _designed_tones),
            # built once per run, before any fork; every work item carries them
            ("matrices", ("params", "tones"), _bench_matrices),
        ),
    ),
    "codebook-verify": _Experiment(
        _run_codebook_verify,
        {
            "l_prime": ("20", _count),
            "l": ("", lambda text: _count(text) if text else None),  # see _codebook
            "k": ("21", _count),
        },
        (("book", ("k", "l_prime", "l"), _codebook),),
    ),
    "netsim": _Experiment(
        _run_netsim,
        {
            # the Monte-Carlo kernel's range; fig3's analytic rows take any count
            "cells": (
                "4,16,64",
                _listed(_count, lambda n: n <= MC_MAX_CELLS, f"at most {MC_MAX_CELLS}"),
            ),
            "group_sizes": ("1,4,16,64", _listed(_count)),
            "alphas": ("0.5,0.7,1.0", _listed(float, lambda alpha: 0 < alpha <= 1, "in (0, 1]")),
            "trials": ("100000", _count),
        },
    ),
}


def _resolve_config(experiment: str, config_path, sets) -> tuple[dict[str, str], dict]:
    """The resolved config strings, which the digest hashes, and the values and inputs built."""
    keys = EXPERIMENTS[experiment].keys
    resolved = {key: default for key, (default, _) in keys.items()}
    items = [] if config_path is None else _config_lines(config_path)
    for where, item in items + [("--set", item) for item in sets]:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in resolved:
            raise ConfigError(
                f"unknown key {key!r} for experiment {experiment}; "
                f"known keys: {', '.join(sorted(resolved))}"
            )
        resolved[key] = value.strip()
    values = {}
    for key, text in resolved.items():
        try:
            values[key] = keys[key][1](text)
        except ValueError as exc:
            raise ConfigError(f"{key}={text!r}: {exc}") from None
    for name, needs, build in EXPERIMENTS[experiment].inputs:
        try:
            values[name] = build(*(values[key] for key in needs))
        except ValueError as exc:
            # a key by its config text, an input built before by its value
            named = ", ".join(f"{key}={resolved.get(key, values[key])}" for key in needs)
            raise ConfigError(f"{named}: {exc}") from None
    return resolved, values


def _canonical(config: dict[str, str]) -> str:
    return "\n".join(f"{key}={config[key]}" for key in sorted(config))


def _write_csv(path, experiment, seed, config, header, rows):
    digest = hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# tool: cspilot {__version__}\n")
        fh.write(f"# experiment: {experiment}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(f"# config-sha256: {digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _openblas_threads():
    """Getter and setter of the OpenBLAS thread count bundled with numpy, or None.

    `main` sets one thread, when the count reads otherwise, and keeps it for
    the rest of the process.  The matrices here are small, so BLAS threads
    cost CPU without saving time, and LAPACK rounds differently with another
    thread count; one thread keeps the CSV bytes the same on every machine.
    The count is never restored: the CLI owns its process, and after a fork
    each set call restarts an OpenBLAS thread that spins ~0.125 s of CPU.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(str(paths[0]))  # the copy numpy already loaded
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put = lib.scipy_openblas_set_num_threads64_
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cspilot",
        description="Seeded batch experiments for compressed-sensing pilot training.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=_at_least(0), default=0, help="master seed (default 0)")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over --config)",
    )
    parser.add_argument("--workers", type=_count, default=1, help="parallel workers")
    args = parser.parse_args(argv)

    try:
        config, values = _resolve_config(args.experiment, args.config, args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"cspilot: config error: {exc}", file=sys.stderr)
        return 2

    runner = EXPERIMENTS[args.experiment].runner
    threads = _openblas_threads()
    if threads is not None and threads[0]() != 1:
        threads[1](1)  # kept for the process, see _openblas_threads
    header, rows, failures = runner(values, args.seed, args.workers)

    out_path = args.out if args.out is not None else f"{args.experiment}.csv"
    try:
        _write_csv(out_path, args.experiment, args.seed, config, header, rows)
    except OSError as exc:
        print(f"cspilot: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1

    if failures:
        print(f"cspilot: {args.experiment}: {failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
