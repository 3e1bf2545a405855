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

Randomness is derived per grid point from ``(seed, experiment tag, item
index)``, and per recover-bench trial from ``(seed, tag, SNR index, trial
index)``.  recover-bench splits each SNR into chunks of trials, each chunk
returns its per-trial NMSE and support hits, and the means add them in
trial order.  ``--workers N`` runs the work items on N forked processes;
``main`` pins the BLAS to one thread before the first experiment and keeps
it for the process.  Output bytes are therefore identical for any
``--workers`` value and any BLAS thread setting.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import (
    OfdmParams,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from .detection import (
    DetectionConfig,
    _crossing,
    error_probability,
    error_probability_mc,
    optimal_threshold,
)
from .netsim import NetworkModel, collision_probability, collision_probability_mc, rho_metrics
from .pilots import build_codebook, choose_l, decode_energy_vector, superpose
from .recovery import (
    comb_tone_set,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
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

# trials per recover-bench work item: small enough that the slow noiseless
# SNR spreads over the workers, large enough that a trial's cost dwarfs the
# cost of shipping the item
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


def _pathloss_power(text: str) -> float:
    """Detect-sweep's gP: 0 (the pinned threshold), or one whose crossing `_crossing` accepts."""
    gp = float(text)
    if not 0 <= gp < math.inf:
        raise ValueError("must be finite and >= 0")
    if gp > 0:
        _crossing(gp)
    return gp


def _codebook(k: int, l_prime: int, l: int | None):
    """Codebook-verify's book; ``l`` None (empty) means the smallest l that fits k users."""
    return build_codebook(k, l_prime, l or choose_l(k, l_prime))


# config key of each OfdmParams field, in field order, at the standard working point
_OFDM_KEYS = {
    key: (str(value), _count)
    for key, value in zip(("wt", "tap_count", "sparsity", "pilot_count"), astuple(default_params()))
}
_PARAMS = ("params", tuple(_OFDM_KEYS), OfdmParams)  # the input those keys build


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


def _detect_point(item):
    seed, trials, index, m, gp = item
    rng = np.random.default_rng([seed, _TAG_DETECT, index])
    if gp > 0:
        threshold = optimal_threshold(DetectionConfig(antenna_count=m, pathloss_power=gp))
    else:
        threshold = _GP_ZERO_THRESHOLD
    config = DetectionConfig(antenna_count=m, pathloss_power=gp, threshold=threshold)
    pe = error_probability_mc(config, trials, rng)
    stderr = float(np.sqrt(pe * (1.0 - pe) / trials))
    return [m, gp, threshold, error_probability(config), pe, stderr]


def _run_detect_sweep(cfg, seed, workers):
    grid = [(m, gp) for m in cfg["antenna_counts"] for gp in cfg["pathloss_powers"]]
    items = [(seed, cfg["trials"], index, m, gp) for index, (m, gp) in enumerate(grid)]
    # a point costs in proportion to its antenna count: start the largest
    # first so the pool does not end on one long item, then restore grid order
    order = sorted(range(len(items)), key=lambda index: -grid[index][0])
    results = _fan_out(_detect_point, [items[index] for index in order], workers)
    rows = [row for _, row in sorted(zip(order, results))]
    return ["m_bs", "g_p", "threshold", "pe_analytic", "pe_mc", "pe_stderr"], rows, 0


def _designed_tones(policy: str, *point: int):
    """The frozen tones at ``(wt, tap_count, pilot_count)`` as a tuple, or None for random tones."""
    if policy == "random":
        return None
    if point not in DESIGNED_TONES:
        points = " or ".join(map(str, DESIGNED_TONES))
        raise ValueError(f"frozen tones only at {points}, not {point}; random tones fit any point")
    return tuple(DESIGNED_TONES[point].tolist())


@functools.lru_cache(maxsize=4)
def _bench_matrices(params: OfdmParams, tones):
    """The comb matrix and the matrix of the designed `tones` (None for random), once per process.

    Both are read-only and so are the operators they cache, so every chunk a
    process runs shares them.
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


# the order in which _recover_chunk lists each trial's outcomes
_RECOVER_METHODS = ("dantzig", "dantzig+debias", "omp", "fde_ls")


def _score(h, estimate, support):
    """``(nmse, hit)`` of one estimate of `h`; a hit is the exact support."""
    return nmse(h.taps, estimate), int(np.array_equal(np.sort(support), h.support))


def _recover_chunk(item):
    """Per-trial outcomes of every method, for trials ``t0 <= t < t1`` at one SNR.

    Each trial lists one ``(nmse, hit)`` per method, in `_RECOVER_METHODS`
    order; both Dantzig entries are None when the LP solve was not optimal,
    so a failed solve is never scored.  The comb matrix and a designed tone
    set come from `_bench_matrices`, so the operators they cache serve every
    trial; random tones are drawn, and built, per trial.
    """
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
        scores = [None, None]  # a failed solve's NaN estimates are not scored
        if res.solver_status == "optimal":
            scores = [
                _score(h, res.raw_estimate, res.raw_support),
                _score(h, res.estimate, res.recovered_support),
            ]
        scores += [_score(h, r.estimate, r.recovered_support) for r in (omp_res, fde_res)]
        trials.append(scores)
    return trials


def _run_recover_bench(cfg, seed, workers):
    params, tones, trials, snrs = cfg["params"], cfg["tones"], cfg["trials"], cfg["snr_dbs"]
    items = [
        (seed, params, tones, si, noise_var, t0, min(t0 + _TRIAL_CHUNK, trials))
        for si, (_, noise_var) in enumerate(snrs)
        for t0 in range(0, trials, _TRIAL_CHUNK)
    ]
    chunks = _fan_out(_recover_chunk, items, workers)
    per_trial = [trial for chunk in chunks for trial in chunk]
    # one failure per failed LP solve; its trial is left out of both Dantzig rows
    failures = sum(trial[0] is None for trial in per_trial)
    rows = []
    for si, (snr_db, _) in enumerate(snrs):
        outcomes = per_trial[si * trials : (si + 1) * trials]
        for mi, name in enumerate(_RECOVER_METHODS):
            scored = [trial[mi] for trial in outcomes if trial[mi] is not None]
            # add in t order, one float at a time, so the mean is the same
            # for every chunking (sum() compensates from Python 3.12 on)
            total = 0.0
            for value, _ in scored:
                total += value
            hits, count = sum(hit for _, hit in scored), len(scored)
            mean, rate = (total / count, hits / count) if count else (math.nan, math.nan)
            used = params.tap_count if name == "fde_ls" else params.pilot_count
            rows.append([snr_db, name, mean, rate, used])
    header = ["snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used"]
    return header, rows, failures


def _run_codebook_verify(cfg, seed, workers):
    book = cfg["book"]
    k = book.user_count
    outcome = decode_energy_vector(np.zeros(book.dimension, dtype=np.uint8), book)
    rows = [["empty", 1, int(outcome.kind != "empty")]]

    single_fail = 0
    for i in range(k):
        outcome = decode_energy_vector(superpose([i], book), book)
        if outcome.kind != "identified" or outcome.ue_index != i:
            single_fail += 1
    rows.append(["single", k, single_fail])

    if k > 300:
        rng = np.random.default_rng([seed, _TAG_CODEBOOK, 0])
        pairs = set()
        while len(pairs) < 10_000:
            i, j = rng.integers(0, k, size=2)
            if i != j:
                pairs.add((min(i, j), max(i, j)))
        pair_list = sorted(pairs)
    else:
        pair_list = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pair_fail = 0
    for i, j in pair_list:
        if decode_energy_vector(superpose([i, j], book), book).kind != "collision":
            pair_fail += 1
    rows.append(["pair", len(pair_list), pair_fail])

    return ["check", "cases", "failures"], rows, sum(row[2] for row in rows)


def _netsim_point(item):
    seed, trials, index, n, k, a = item
    model = NetworkModel(cell_count=n, coverage_prob=a, group_size=k)
    rng = np.random.default_rng([seed, _TAG_NETSIM, index])
    estimate, stderr = collision_probability_mc(model, trials, rng)
    return [n, k, a, trials, collision_probability(model), estimate, stderr]


def _run_netsim(cfg, seed, workers):
    grid = [(n, k, a) for n in cfg["cells"] for k in cfg["group_sizes"] for a in cfg["alphas"]]
    items = [(seed, cfg["trials"], index, *point) for index, point in enumerate(grid)]
    header = ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"]
    return header, _fan_out(_netsim_point, items, workers), 0


def _fan_out(work, items, workers):
    """``[work(item) for item in items]``, on up to `workers` forked processes.

    `work` is a module-level function and each item and result pickles.  The
    pool is shut down, and its children joined, before this returns.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [work(item) for item in items]
    # fork by name: the children inherit the loaded modules and the one BLAS
    # thread set in main, and Python 3.14 makes another method the default
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(work, items))


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
            **_OFDM_KEYS,
            "cells": ("16", _count),
            "kg_max": ("100", _count),
            "p_outs": ("0,0.3", _listed(float, lambda p_out: 0 <= p_out < 1, "in [0, 1)")),
        },
        (_PARAMS,),
    ),
    "detect-sweep": _Experiment(
        _run_detect_sweep,
        {
            "antenna_counts": ("32,64,128", _listed(_count)),
            "pathloss_powers": ("0,2,10", _listed(_pathloss_power)),
            "trials": ("100000", _count),
        },
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
            # built before any pool forks: workers find them in _bench_matrices' cache
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
            "cells": ("4,16,64", _listed(_count)),
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
            named = ", ".join(f"{key}={values[key]}" for key in needs)
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
