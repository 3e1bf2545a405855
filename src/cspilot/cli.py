"""Batch experiment runner with seeded, byte-reproducible CSV output.

``cspilot <experiment> [--config FILE] [--seed N] [--out FILE]
[--set key=value ...] [--workers N]``

Config files are flat ``key=value`` lines (``#`` comments allowed);
``--set`` overrides win over the file, which wins over defaults.  Unknown
keys are rejected.  Output is RFC-4180-style CSV (UTF-8, LF) preceded by
``#``-prefixed provenance lines: tool version, seed, and a SHA-256 digest
of the resolved configuration.  Randomness is derived per work item from
``(seed, experiment tag, item index)``, so output bytes are identical for
any ``--workers`` value.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import (
    OfdmParams,
    build_sensing_matrix,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from .detection import DetectionConfig, error_probability_mc, optimal_threshold
from .netsim import NetworkModel, collision_probability, collision_probability_mc, rho_metrics
from .pilots import build_codebook, choose_l, decode_energy_vector, superpose
from .recovery import (
    DantzigConfig,
    comb_tone_set,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
    threshold_support,
)
from .tones import DESIGNED_TONES_25, DESIGNED_TONES_100

# experiment tags keep per-item random streams disjoint across experiments
_TAG_DETECT = 1
_TAG_RECOVER = 2
_TAG_CODEBOOK = 3
_TAG_NETSIM = 4

# with g*P = 0 the two hypotheses coincide and no threshold is better than
# any other; the sweep pins this arbitrary value so rows stay well defined
_GP_ZERO_THRESHOLD = 1.5

_DESIGNED = {
    (1000, 25, 20): DESIGNED_TONES_25,
    (1000, 100, 20): DESIGNED_TONES_100,
}


class ConfigError(Exception):
    pass


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() drops numpy's type from the repr (np.float64 is a float)
        return repr(float(value))
    return str(value)


def _ofdm_from(cfg: dict[str, str]) -> OfdmParams:
    return OfdmParams(
        bandwidth_time_product=int(cfg["wt"]),
        tap_count=int(cfg["tap_count"]),
        sparsity=int(cfg["sparsity"]),
        pilot_count=int(cfg["pilot_count"]),
        symbol_energy=float(cfg["symbol_energy"]),
    )


# ---------------------------------------------------------------------------
# experiment runners: each returns (header, rows, failures)


def _run_fig3(cfg, seed, workers):
    params = _ofdm_from(cfg)
    cells = int(cfg["cells"])
    kg_max = int(cfg["kg_max"])
    rows = []
    for p_out in _floats(cfg["p_outs"]):
        alpha = 1.0 - p_out
        for k_g in range(1, kg_max + 1):
            model = NetworkModel(cell_count=cells, coverage_prob=alpha, group_size=k_g)
            rho = rho_metrics(model, params)
            rows.append([k_g, p_out, rho.fq, rho.ag_fq, rho.cs, rho.ag_cs])
    return ["k_g", "p_out", "rho_fq", "rho_ag_fq", "rho_cs", "rho_ag_cs"], rows, 0


def _run_detect_sweep(cfg, seed, workers):
    antenna_counts = _ints(cfg["antenna_counts"])
    powers = _floats(cfg["pathloss_powers"])
    trials = int(cfg["trials"])
    grid = [(m, gp) for m in antenna_counts for gp in powers]

    def work(item):
        index, (m, gp) = item
        rng = np.random.default_rng([seed, _TAG_DETECT, index])
        if gp > 0:
            threshold = optimal_threshold(DetectionConfig(antenna_count=m, pathloss_power=gp))
        else:
            threshold = _GP_ZERO_THRESHOLD
        config = DetectionConfig(antenna_count=m, pathloss_power=gp, threshold=threshold)
        pe = error_probability_mc(config, trials, rng)
        stderr = float(np.sqrt(pe * (1.0 - pe) / trials))
        return [m, gp, threshold, pe, stderr]

    rows = _fan_out(work, list(enumerate(grid)), workers)
    return ["m_bs", "g_p", "threshold", "pe_mc", "pe_stderr"], rows, 0


def _bench_tones(params: OfdmParams, policy: str, rng) -> np.ndarray:
    if policy == "designed":
        key = (params.bandwidth_time_product, params.tap_count, params.pilot_count)
        designed = _DESIGNED.get(key)
        if designed is not None:
            return designed
    return select_pilot_tones(params, rng)


def _noise_variance(symbol_energy: float, snr_db: float) -> float:
    """Per-tone noise variance at `snr_db`; only +inf dB means noiseless."""
    if snr_db == math.inf:
        return 0.0
    try:
        noise_var = symbol_energy / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # the power left the float range
        noise_var = math.nan
    if not (math.isfinite(noise_var) and noise_var > 0):
        raise ConfigError(
            f"snr_dbs entry {snr_db!r} dB has no finite, positive noise variance "
            "(only inf means noiseless)"
        )
    return noise_var


def _run_recover_bench(cfg, seed, workers):
    params = _ofdm_from(cfg)
    trials = int(cfg["trials"])
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    policy = cfg["tone_policy"]
    if policy not in ("designed", "random"):
        raise ConfigError(f"tone_policy must be designed or random, not {policy!r}")
    snrs = [float(v) for v in cfg["snr_dbs"].split(",") if v.strip()]
    noise_vars = [_noise_variance(params.symbol_energy, snr_db) for snr_db in snrs]
    comb = build_sensing_matrix(comb_tone_set(params), params)
    methods = ["dantzig", "dantzig+debias", "omp", "fde_ls"]

    def work(item):
        si, snr_db = item
        noise_var = noise_vars[si]
        if noise_var == 0.0:
            dcfg = DantzigConfig(epsilon=1e-6, epsilon_rule="explicit", debias=True)
        else:
            dcfg = DantzigConfig(
                epsilon_rule="scaled",
                noise_variance=noise_var,
                debias=True,
                magnitude_floor=0.01,
            )
        sums = {m: 0.0 for m in methods}
        hits = {m: 0 for m in methods}
        for t in range(trials):
            rng = np.random.default_rng([seed, _TAG_RECOVER, si, t])
            h = sample_channel(params, rng)
            X = build_sensing_matrix(_bench_tones(params, policy, rng), params)
            y = synthesize_measurement(X, h, params, noise_var, rng)
            res = dantzig_recover(y, X, params, dcfg)
            raw = res.raw_estimate
            raw_support = threshold_support(raw, dcfg.magnitude_floor)
            omp_res = omp_recover(y, X, params, params.sparsity)
            y_full = synthesize_measurement(comb, h, params, noise_var, rng)
            fde_res = fde_ls_recover(y_full, comb, params)
            outcomes = {
                "dantzig": (raw, raw_support),
                "dantzig+debias": (res.estimate, res.recovered_support),
                "omp": (omp_res.estimate, omp_res.recovered_support),
                "fde_ls": (fde_res.estimate, fde_res.recovered_support),
            }
            for name, (estimate, support) in outcomes.items():
                sums[name] += nmse(h.taps, estimate)
                hits[name] += int(np.array_equal(np.sort(support), h.support))
        rows = []
        for name in methods:
            used = params.tap_count if name == "fde_ls" else params.pilot_count
            rows.append([snr_db, name, sums[name] / trials, hits[name] / trials, used])
        return rows

    per_snr = _fan_out(work, list(enumerate(snrs)), workers)
    rows = [row for group in per_snr for row in group]
    return (
        ["snr_db", "method", "nmse_db_mean", "support_rate", "pilot_tones_used"],
        rows,
        0,
    )


def _run_codebook_verify(cfg, seed, workers):
    l_prime = int(cfg["l_prime"])
    k = int(cfg["k"])
    l = int(cfg["l"]) if cfg["l"] else (choose_l(k, l_prime) if k >= 1 else 1)
    book = build_codebook(k, l_prime, l)
    failures = 0
    rows = []

    outcome = decode_energy_vector(np.zeros(book.dimension, dtype=np.uint8), book)
    empty_fail = int(outcome.kind != "empty")
    rows.append(["empty", 1, empty_fail])
    failures += empty_fail

    single_fail = 0
    for i in range(k):
        outcome = decode_energy_vector(superpose([i], book), book)
        if outcome.kind != "identified" or outcome.ue_index != i:
            single_fail += 1
    rows.append(["single", k, single_fail])
    failures += single_fail

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
    failures += pair_fail

    return ["check", "cases", "failures"], rows, failures


def _run_netsim(cfg, seed, workers):
    cells = _ints(cfg["cells"])
    group_sizes = _ints(cfg["group_sizes"])
    alphas = _floats(cfg["alphas"])
    trials = int(cfg["trials"])
    grid = [(n, k, a) for n in cells for k in group_sizes for a in alphas]

    def work(item):
        index, (n, k, a) = item
        model = NetworkModel(cell_count=n, coverage_prob=a, group_size=k)
        rng = np.random.default_rng([seed, _TAG_NETSIM, index])
        estimate, stderr = collision_probability_mc(model, trials, rng)
        return [n, k, a, trials, collision_probability(model), estimate, stderr]

    rows = _fan_out(work, list(enumerate(grid)), workers)
    return (
        ["cells", "group_size", "alpha", "trials", "p_analytic", "p_mc", "p_stderr"],
        rows,
        0,
    )


def _fan_out(work, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, items))


@dataclass(frozen=True)
class _Experiment:
    runner: object
    defaults: dict


_OFDM_DEFAULTS = {
    "wt": "1000",
    "tap_count": "100",
    "sparsity": "4",
    "pilot_count": "20",
    "symbol_energy": "1.0",
}

EXPERIMENTS = {
    "fig3": _Experiment(
        _run_fig3,
        {**_OFDM_DEFAULTS, "cells": "16", "kg_max": "100", "p_outs": "0,0.3"},
    ),
    "detect-sweep": _Experiment(
        _run_detect_sweep,
        {
            "antenna_counts": "32,64,128",
            "pathloss_powers": "0,2,10",
            "trials": "100000",
        },
    ),
    "recover-bench": _Experiment(
        _run_recover_bench,
        {
            **_OFDM_DEFAULTS,
            "trials": "100",
            "snr_dbs": "0,10,20,inf",
            "tone_policy": "designed",
        },
    ),
    "codebook-verify": _Experiment(
        _run_codebook_verify,
        {"l_prime": "20", "l": "", "k": "21"},
    ),
    "netsim": _Experiment(
        _run_netsim,
        {
            "cells": "4,16,64",
            "group_sizes": "1,4,16,64",
            "alphas": "0.5,0.7,1.0",
            "trials": "100000",
        },
    ),
}


def _resolve_config(experiment: str, config_path, sets) -> dict[str, str]:
    entry = EXPERIMENTS[experiment]
    resolved = dict(entry.defaults)
    layers = []
    if config_path is not None:
        layers.append(_parse_config_file(config_path))
    overrides = {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    layers.append(overrides)
    for layer in layers:
        for key, value in layer.items():
            if key not in resolved:
                raise ConfigError(
                    f"unknown key {key!r} for experiment {experiment}; "
                    f"known keys: {', '.join(sorted(resolved))}"
                )
            resolved[key] = value
    return resolved


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cspilot",
        description="Seeded batch experiments for compressed-sensing pilot training.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over --config)",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    args = parser.parse_args(argv)

    try:
        config = _resolve_config(args.experiment, args.config, args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"cspilot: config error: {exc}", file=sys.stderr)
        return 2

    runner = EXPERIMENTS[args.experiment].runner
    try:
        header, rows, failures = runner(config, args.seed, max(1, args.workers))
    except (ConfigError, ValueError) as exc:
        # covers malformed numeric values and capacity-exceeded codebooks
        print(f"cspilot: config error: {exc}", file=sys.stderr)
        return 2

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
