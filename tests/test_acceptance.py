"""Release gate: one test and one summary line per acceptance criterion.

Every expected value here is computed in-test from a closed form, an
exhaustive enumeration, or a frozen Monte-Carlo benchmark with fixed
seeds — never from the implementation under test.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import stats

import conftest
from cspilot import cli
from cspilot.channel import (
    build_sensing_matrix,
    default_params,
    sample_channel,
    synthesize_measurement,
)
from cspilot.detection import DetectionConfig, error_probability_mc, optimal_threshold
from cspilot.netsim import (
    NetworkModel,
    collision_probability,
    collision_probability_mc,
    optimal_group_size,
    reuse_gain,
    rho_metrics,
)
from cspilot.pilots import (
    build_codebook,
    capacity,
    code_efficiency,
    decode_energy_vector,
    superpose,
)
from cspilot.recovery import (
    comb_tone_set,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
)
from cspilot.tones import DESIGNED_TONES_25, DESIGNED_TONES_100


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_criterion_1_multiplexing_closed_forms():
    p = default_params()
    r1 = rho_metrics(NetworkModel(16, 1.0, 1), p)
    r16 = rho_metrics(NetworkModel(16, 1.0, 16), p)
    direct = 1000.0 * (16.0 * (15.0 / 16.0) ** 15) / 21.0
    vals = [rho_metrics(NetworkModel(16, 1.0, k), p).ag_cs for k in range(1, 161)]
    peak = int(np.argmax(vals))
    unimodal = all(vals[i] <= vals[i + 1] + 1e-9 for i in range(peak)) and all(
        vals[i] >= vals[i + 1] - 1e-9 for i in range(peak, len(vals) - 1)
    )
    best_07 = optimal_group_size(NetworkModel(16, 0.7, 1))
    checks = [
        r1.fq == 10.0,
        r1.cs == 50.0,
        abs(r16.ag_cs - direct) <= 0.01,
        unimodal,
        optimal_group_size(NetworkModel(16, 1.0, 1)) == 16,
        best_07 in (22, 23),
    ]
    _report(
        1,
        all(checks),
        f"rho_fq={r1.fq}, rho_cs={r1.cs}, rho_ag_cs(16)={r16.ag_cs:.5f} "
        f"(direct {direct:.5f}), peak 16 at full coverage, {best_07} at 70%",
    )


def test_criterion_2_collision_probability_grid():
    misses = 0
    worst = 0.0
    index = 0
    for n in (4, 16, 64):
        for k_g in (1, 4, 16, 64):
            for alpha in (0.5, 0.7, 1.0):
                model = NetworkModel(n, alpha, k_g)
                rng = np.random.default_rng([2024, 43, index])
                index += 1
                est, stderr = collision_probability_mc(model, 100_000, rng)
                p = collision_probability(model)
                # one score quantum of headroom: a saturated sample (stderr 0)
                # cannot resolve p closer than 1/(K_G * trials)
                ok = abs(est - p) <= 4.0 * stderr + 1.0 / (k_g * 100_000)
                if stderr > 0.0:
                    worst = max(worst, abs(est - p) / stderr)
                misses += int(not ok)
    _report(
        2,
        misses == 0,
        f"36-point grid x 1e5 trials, worst deviation {worst:.2f} stderr (cap 4)",
    )


def test_criterion_3_detection_operating_point():
    eta = optimal_threshold(DetectionConfig(128, 10.0))
    pe = error_probability_mc(
        DetectionConfig(128, 10.0, eta), 100_000, np.random.default_rng([2024, 44, 0])
    )
    pe0 = error_probability_mc(
        DetectionConfig(128, 0.0, 1.5), 100_000, np.random.default_rng([2024, 44, 1])
    )
    sigma0 = math.sqrt(0.25 / 100_000)

    # independent fine-grid scan of the analytic error probability at (10, 64)
    def pe_curve(ts):
        return 0.5 * (
            stats.gamma.sf(ts, a=64, scale=1.0 / 64)
            + stats.gamma.cdf(ts, a=64, scale=11.0 / 64)
        )

    coarse = np.linspace(1.001, 10.999, 10_001)
    centre = coarse[int(np.argmin(pe_curve(coarse)))]
    fine = np.arange(centre - 2e-3, centre + 2e-3, 1e-6)
    best = float(fine[int(np.argmin(pe_curve(fine)))])
    found = optimal_threshold(DetectionConfig(64, 10.0))
    checks = [pe < 1e-3, abs(pe0 - 0.5) <= 3.0 * sigma0, abs(found - best) <= 1e-4]
    _report(
        3,
        all(checks),
        f"Pe(128 ant, gP=10)={pe:.1e}<1e-3, blind Pe={pe0:.4f}, "
        f"threshold {found:.6f} vs grid scan {best:.6f}",
    )


def test_criterion_4_sparse_recovery_benchmarks():
    # noiseless: 25 taps, low-coherence tones, 500 frozen trials
    p25 = default_params(tap_count=25)
    X25 = build_sensing_matrix(DESIGNED_TONES_25, p25)
    omp_hits = agree = 0
    for t in range(500):
        rng = np.random.default_rng([2024, 41, t])
        h = sample_channel(p25, rng)
        y = synthesize_measurement(X25, h, 0.0, rng)
        o = omp_recover(y, X25, p25.sparsity)
        d = dantzig_recover(y, X25, 0.0)
        omp_hits += int(np.array_equal(o.recovered_support, h.support))
        agree += int(np.array_equal(d.raw_support, o.recovered_support))

    # 20 dB per-tone SNR: 100 taps, scaled residual bound, stepwise debias
    p100 = default_params()
    X100 = build_sensing_matrix(DESIGNED_TONES_100, p100)
    comb = build_sensing_matrix(comb_tone_set(p100), p100)
    nv = 0.01
    hits = 0
    nm_cs = []
    nm_fde = []
    for t in range(200):
        rng = np.random.default_rng([2024, 42, t])
        h = sample_channel(p100, rng)
        y = synthesize_measurement(X100, h, nv, rng)
        d = dantzig_recover(y, X100, nv)
        hits += int(np.array_equal(np.sort(d.recovered_support), h.support))
        nm_cs.append(nmse(h.taps, d.estimate))
        yf = synthesize_measurement(comb, h, nv, rng)
        nm_fde.append(nmse(h.taps, fde_ls_recover(yf, comb).estimate))

    cs_db, fde_db = float(np.mean(nm_cs)), float(np.mean(nm_fde))
    checks = [
        omp_hits == 500,
        agree >= 495,
        hits >= 180,
        cs_db <= fde_db + 3.0,
    ]
    _report(
        4,
        all(checks),
        f"noiseless OMP {omp_hits}/500, LP agreement {agree}/500; 20 dB support "
        f"{hits}/200, NMSE {cs_db:.2f} dB vs dense LS {fde_db:.2f} dB",
    )


def test_criterion_5_codebook_family():
    anti_diagonal = np.array(
        [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]], dtype=np.uint8
    )
    checks = [np.array_equal(build_codebook(4, 3, 1).columns, anti_diagonal)]
    for l_prime, l in ((3, 1), (20, 1), (20, 2)):
        K = capacity(l_prime, l)
        book = build_codebook(K, l_prime, l)
        out_empty = decode_energy_vector(np.zeros(book.dimension, np.uint8), book)
        singles = sum(
            int(
                (out := decode_energy_vector(superpose([i], book), book)).kind
                == "identified"
                and out.ue_index == i
            )
            for i in range(K)
        )
        pairs = sum(
            int(decode_energy_vector(superpose([i, j], book), book).kind == "collision")
            for i, j in combinations(range(K), 2)
        )
        checks += [
            out_empty.kind == "empty",
            singles == K,
            pairs == K * (K - 1) // 2,
        ]
    closed_forms = all(
        capacity(lp, l) == math.comb(lp + l, l)
        and code_efficiency(lp, l) == Fraction(lp, lp + l)
        for l in range(1, 6)
        for lp in range(1, 51)
    )
    checks.append(closed_forms)
    _report(
        5,
        all(checks),
        "anti-diagonal book bit-exact; single/pair decoding exhaustive at "
        "capacity for (3,1), (20,1), (20,2); capacity and efficiency closed "
        "forms exact for l<=5, L'<=50",
    )


def test_criterion_6_reuse_gain_curve():
    p = default_params()
    gains = [reuse_gain(NetworkModel(16, 1.0 - q, 16), p) for q in (0.0, 0.1, 0.2, 0.3)]
    direct = (20.0 * 16.0 / 21.0) * (15.0 / 16.0) ** 15
    checks = [
        all(b > a for a, b in zip(gains, gains[1:])),
        abs(gains[0] - direct) <= 0.001,
    ]
    _report(
        6,
        all(checks),
        f"gain strictly increasing {['%.4f' % g for g in gains]}, "
        f"G(0) vs direct {direct:.6f}",
    )


def test_criterion_7_cli_reproducibility(tmp_path):
    netsim = [
        "netsim",
        "--set", "trials=150",
        "--set", "cells=4",
        "--set", "group_sizes=1,4",
        "--set", "alphas=0.5,1.0",
    ]
    recover = [
        "recover-bench",
        "--set", "trials=2",
        "--set", "snr_dbs=10,inf",
        "--set", "tap_count=25",
    ]
    outputs = {}
    for tag, args, extra in [
        ("n1", netsim, []),
        ("n2", netsim, []),
        ("n3", netsim, ["--workers", "3"]),
        ("r1", recover, []),
        ("r2", recover, ["--workers", "2"]),
    ]:
        out = tmp_path / f"{tag}.csv"
        assert cli.main([*args, "--seed", "9", "--out", str(out), *extra]) == 0
        outputs[tag] = out.read_bytes()
    ok = (
        outputs["n1"] == outputs["n2"] == outputs["n3"]
        and outputs["r1"] == outputs["r2"]
    )
    _report(
        7,
        ok,
        "CSV bytes identical across reruns and worker counts "
        "(netsim x3, recover-bench x2)",
    )
