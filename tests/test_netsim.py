
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cspilot import netsim
from cspilot.channel import default_params
from cspilot.netsim import (
    NetworkModel,
    collision_probability,
    collision_probability_mc,
    expected_singletons,
    optimal_group_size,
    reuse_gain,
    rho_metrics,
)

# closed-form values frozen from independent evaluation of the occupancy
# model: E[X] = a*K*(1 - a/N)**(K-1), p = 1 - a*(1 - a/N)**(K-1)
EX_16_16_1 = 16.0 * (15.0 / 16.0) ** 15  # 6.076998493043931
P_16_16_1 = 1.0 - (15.0 / 16.0) ** 15  # 0.6201875941847543
EX_16_12_07 = 0.7 * 12 * (1 - 0.7 / 16) ** 11  # 5.135292858496829


def model(n=16, alpha=1.0, kg=16):
    return NetworkModel(cell_count=n, coverage_prob=alpha, group_size=kg)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cell_count=0, coverage_prob=1.0, group_size=1),
        dict(cell_count=4, coverage_prob=0.0, group_size=1),
        dict(cell_count=4, coverage_prob=1.2, group_size=1),
        dict(cell_count=4, coverage_prob=1.0, group_size=0),
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        NetworkModel(**kwargs)


def test_singleton_count_matches_mc_expectation(rng):
    m = model(alpha=0.7, kg=12)
    p_hat, stderr = collision_probability_mc(m, 100_000, rng)
    singles_hat = 12 * (1 - p_hat)  # E[singletons] = K_G * P(a UE trains)
    assert abs(singles_hat - EX_16_12_07) < 3 * 12 * stderr + 1e-9


def test_expected_singletons_closed_form():
    assert expected_singletons(model()) == pytest.approx(EX_16_16_1, abs=1e-12)
    assert expected_singletons(model(kg=1, alpha=0.3)) == pytest.approx(0.3)
    huge = model(n=10**6, alpha=0.9, kg=40)
    assert expected_singletons(huge) == pytest.approx(0.9 * 40, rel=1e-3)


def test_collision_probability_closed_form():
    assert collision_probability(model()) == pytest.approx(P_16_16_1, abs=1e-12)
    assert collision_probability(model(kg=1, alpha=0.4)) == pytest.approx(0.6)
    assert collision_probability(model(kg=1000)) > 0.999


def test_optimal_group_size_values():
    assert optimal_group_size(model(alpha=1.0)) == 16  # tie at 15 vs 16 -> larger
    assert optimal_group_size(model(alpha=0.7)) in (22, 23)
    assert optimal_group_size(model(n=1, alpha=1.0, kg=1)) == 1


def scan_group_size(n, alpha):
    """The scan the closed form replaced: sizes 1..ceil(10 N / alpha), ties to the larger."""
    sizes = np.arange(1, int(np.ceil(10.0 * n / alpha)) + 1, dtype=float)
    values = alpha * sizes * (1.0 - alpha / n) ** (sizes - 1.0)
    best = 0
    for k in range(1, len(values)):
        if values[k] >= values[best]:
            best = k
    return int(sizes[best])


def test_optimal_group_size_matches_scan():
    for n in (1, 2, 3, 4, 7, 16, 64, 100, 257):
        for alpha in (0.01, 0.05, 0.1, 0.3, 0.5, 0.6321, 0.7, 0.9, 0.99, 1.0):
            closed = optimal_group_size(model(n=n, alpha=alpha, kg=1))
            scanned = scan_group_size(n, alpha)
            if closed == scanned:
                continue
            # the scan breaks exact ties by rounding; the closed form must
            # return the larger of two sizes of equal value
            value = lambda k: expected_singletons(model(n=n, alpha=alpha, kg=k))
            assert abs(value(closed) - value(scanned)) <= 1e-12 * value(scanned)
            assert closed == max(closed, scanned)
    # 1 - alpha/N = 319/320 and 63/64: sizes 319/320 and 63/64 tie
    assert optimal_group_size(model(n=16, alpha=0.05, kg=1)) == 320
    assert optimal_group_size(model(n=64, alpha=1.0, kg=1)) == 64


def test_expected_singletons_unimodal_in_group_size():
    vals = [expected_singletons(model(kg=k)) for k in range(1, 161)]
    peak = int(np.argmax(vals))
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(peak))
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(peak, len(vals) - 1))


def test_rho_metrics_closed_forms():
    p = default_params()
    m = model(kg=1)
    r = rho_metrics(m, p)
    assert r.fq == pytest.approx(10.0, abs=1e-12)
    assert r.cs == pytest.approx(50.0, abs=1e-12)
    assert r.ag_fq == pytest.approx(1000.0 / 101.0, abs=1e-12)
    assert r.ag_cs == pytest.approx(1000.0 / 21.0, abs=1e-12)
    r16 = rho_metrics(model(), p)
    assert r16.ag_cs == pytest.approx(289.38088062113957, abs=1e-9)


def test_rho_metrics_scaling_identity():
    p = default_params()
    for kg in (1, 4, 16, 64):
        r = rho_metrics(model(kg=kg, alpha=0.7), p)
        assert r.ag_cs / r.ag_fq == pytest.approx((p.tap_count + 1) / (p.pilot_count + 1))


def test_rho_metrics_vanishing_load():
    p = default_params()
    r = rho_metrics(model(alpha=1e-12, kg=4), p)
    assert max(r.fq, r.cs, r.ag_fq, r.ag_cs) < 1e-9


def test_rho_peak_is_optimal_group_size():
    p = default_params()
    for alpha in (0.5, 0.7, 1.0):
        vals = [rho_metrics(model(kg=k, alpha=alpha), p).ag_cs for k in range(1, 200)]
        best = 0
        for k in range(len(vals)):
            if vals[k] >= vals[best]:
                best = k
        assert best + 1 == optimal_group_size(model(alpha=alpha))


def test_reuse_gain_values():
    p = default_params()
    g0 = reuse_gain(model(), p)
    assert g0 == pytest.approx((320 / 21) * (15 / 16) ** 15, abs=1e-9)
    assert g0 == pytest.approx(5.787617612422791, abs=1e-9)
    gains = [reuse_gain(NetworkModel(16, 1.0 - q, 16), p) for q in (0.0, 0.1, 0.2, 0.3)]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_reuse_gain_ratio_consistency():
    # G(p_out) relates to G(0) by ((1 - (1-p_out)/N)/(1 - 1/N))**(K_G-1)
    p = default_params()
    ratio = reuse_gain(NetworkModel(16, 1.0 - 0.3, 16), p) / reuse_gain(model(), p)
    expected = ((1 - 0.7 / 16) / (1 - 1 / 16)) ** 15
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_reuse_gain_reads_the_model_coverage():
    # the gain is rho_ag_cs / rho_cs of the same model, so alpha = 0.5 and
    # alpha = 1 must give different values
    p = default_params()
    half = NetworkModel(16, 0.5, 16)
    rho = rho_metrics(half, p)
    assert reuse_gain(half, p) != reuse_gain(model(), p)
    assert reuse_gain(half, p) == pytest.approx(rho.ag_cs / rho.cs, rel=0.0, abs=1e-12)


def test_reuse_gain_domain():
    # an outage outside [0, 1) is a coverage outside (0, 1], which the
    # model rejects before any gain is computed
    for q in (-0.1, 1.0):
        with pytest.raises(ValueError):
            reuse_gain(NetworkModel(16, 1.0 - q, 16), default_params())


def test_collision_probability_mc_exact_case(rng):
    est, stderr = collision_probability_mc(model(n=1, alpha=1.0, kg=1), 1, rng)
    assert est == 0.0 and stderr == 0.0


def test_collision_probability_mc_single_ue(rng):
    m = model(kg=1, alpha=0.7)
    est, stderr = collision_probability_mc(m, 10_000, rng)
    assert abs(est - 0.3) < 3 * stderr + 1e-9


def test_collision_probability_mc_against_analytic(rng):
    m = model()
    est, stderr = collision_probability_mc(m, 100_000, rng)
    assert abs(est - P_16_16_1) < 3 * stderr


def _placement_moments(m, trials, rng):
    """Reference: the documented draw order, scored one trial at a time.

    Trial i reads row i of ``u = rng.random((trials, K))``; UE j lands in bin
    ``min(floor(u N / alpha), N)``, bin N being outage, and the bins are
    counted with a `Counter`, so any N up to 2^53 works.  The mean and the
    standard error of the scores are taken exactly (two passes over
    fractions) and rounded once, as the kernel's integer moments are.
    """
    n, a, k = m.cell_count, m.coverage_prob, m.group_size
    u = rng.random((trials, k))
    singles = Counter()
    for row in u:
        bins = Counter(np.minimum(np.floor(row * (n / a)), n).astype(np.int64).tolist())
        singles[sum(1 for cell, count in bins.items() if cell < n and count == 1)] += 1
    scores = {Fraction(k - s, k): c for s, c in singles.items()}
    mean = sum(x * c for x, c in scores.items()) / trials
    var = sum((x - mean) ** 2 * c for x, c in scores.items()) / trials
    return float(mean), math.sqrt(float(var / trials))


def _check_against_reference(m, seed, trials):
    got = collision_probability_mc(m, trials, np.random.default_rng(seed))
    assert got == _placement_moments(m, trials, np.random.default_rng(seed))
    return got


def test_collision_probability_mc_stderr_matches_two_pass_variance():
    # mean ~0.9987, where E[x^2] - mean^2 would lose ~12 digits.  With N = 1
    # this case cannot tell the one-uniform kernel from a two-draw one:
    # rng.integers(0, 1) draws nothing, so both read the same stream
    est, _ = _check_against_reference(model(n=1, alpha=0.002, kg=200), 7, 5096)
    assert 0.99 < est < 1.0


# at the default budget a block holds 2^17 // K_G trials: 2048 at K_G = 64
# and 1310 at K_G = 100
@pytest.mark.parametrize(
    "n, alpha, kg, seed, trials",
    [
        (16, 0.7, 16, 3, 3000),
        (4, 0.5, 64, 11, 2 * 2048 + 1000),  # two full blocks and a partial one
        (64, 1.0, 4, 5, 3000),
        (5, 0.6, 100, 13, 2 * 1310 + 1),  # two full blocks and one trial
        (16, 0.7, 1, 2, 3000),  # K_G = 1
        (4, 0.7, 9, 4, 3000),  # K_G > N
        (1, 1.0, 3, 6, 500),  # K_G > N = 1, no outage: never a singleton
        (64, 1.0, 64, 7, 3000),  # alpha = 1: no outage
        (16, 1e-300, 8, 8, 500),  # every UE in outage
        (64, 0.9, 2, 9, 3000),  # ~18% of trials leave exactly one UE in outage
        (2**31 - 2, 0.9, 4, 10, 1000),  # the largest N with int32 bins
        (2**31 - 1, 0.9, 4, 10, 1000),  # the smallest N with intp bins
    ],
)
def test_collision_probability_mc_matches_per_trial_reference(n, alpha, kg, seed, trials):
    _check_against_reference(model(n=n, alpha=alpha, kg=kg), seed, trials)


def test_collision_probability_mc_does_not_depend_on_chunk(monkeypatch):
    m = model(n=16, alpha=0.7, kg=16)
    results = set()
    for budget in (5, 7 * 16, 8192 * 16):  # 1, 7 and 8192 trials a block
        monkeypatch.setattr(netsim, "_MC_BUDGET", budget)
        results.add(collision_probability_mc(m, 3000, np.random.default_rng(3)))
    assert len(results) == 1


def test_collision_probability_mc_draws_one_uniform_per_ue():
    m = model(n=16, alpha=0.7, kg=5)
    trials = netsim._MC_BUDGET // m.group_size + 3
    rng = np.random.default_rng(9)
    collision_probability_mc(m, trials, rng)
    reference = np.random.default_rng(9)
    reference.random(m.group_size * trials)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [2**62, 2**63 - 2])
def test_collision_probability_mc_runs_up_to_the_intp_limit(n):
    # N / alpha = 2 N, so a UE is in outage exactly when u >= 1/2 (above 2^53
    # the outage bin is the largest double not above N); two of three UEs in
    # one of 2^62 or more cells never meet
    est, _ = collision_probability_mc(model(n=n, alpha=0.5, kg=3), 10, np.random.default_rng(4))
    u = np.random.default_rng(4).random(30)
    assert est == np.count_nonzero(u >= 0.5) / 30


def test_collision_probability_mc_refuses_cells_past_intp():
    # the documented range: N + 1 fits a numpy intp
    m = model(n=2**63 - 1, alpha=0.5, kg=3)
    with pytest.raises(ValueError, match="cell_count"):
        collision_probability_mc(m, 10, np.random.default_rng(0))


@pytest.mark.parametrize("n", [10_000, 2**40])
def test_collision_probability_mc_memory_follows_the_group(n):
    # a block of 2048 trials at K_G = 16 (int32 bins, then intp ones) stays
    # within 64 bytes per slot of a row; one bin per cell and trial would
    # take 2048 (N + 1) 9 bytes, 184 MB at N = 10^4
    m, trials = model(n=n, alpha=0.7, kg=16), 2048
    rows = min(trials, netsim._MC_BUDGET // m.group_size)
    tracemalloc.start()
    try:
        collision_probability_mc(m, trials, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * rows * (m.group_size + 2)


# N with int32 bins and with intp ones, each at a subnormal, two partial and
# full coverage
_GRID = [(n, a) for n in (4, 64, 2**62) for a in (5e-324, 0.5, 0.7, 1.0)]


@pytest.mark.parametrize(
    "kg, trials, budget",
    [
        (1, 1000, 300),  # three blocks of 300 trials and a short last one
        (3, 1000, 3 * 128),  # seven blocks of 128 and a short last one
        (64, 600, 64 * 128),  # four blocks of 128, at K_G > N
    ],
)
def test_singleton_tallies_rows_match_one_point(monkeypatch, kg, trials, budget):
    # the grid kernel sorts each row of uniforms once and maps it through
    # every point's bin map: row i is point i's tally on the same generator
    # state, and each point agrees with the per-trial reference
    monkeypatch.setattr(netsim, "_MC_BUDGET", budget)
    seed = 17
    grid = netsim._singleton_tallies(_GRID, kg, trials, np.random.default_rng(seed))
    assert grid.shape == (len(_GRID), kg + 1) and grid.dtype == np.int64
    for row, (n, a) in zip(grid, _GRID):
        one = netsim._singleton_tallies([(n, a)], kg, trials, np.random.default_rng(seed))
        assert row.tolist() == one[0].tolist(), (n, a)
        m = model(n=n, alpha=a, kg=kg)
        moments = netsim._collision_moments(row, kg, trials)
        assert moments == collision_probability_mc(m, trials, np.random.default_rng(seed))
        assert moments == _placement_moments(m, trials, np.random.default_rng(seed)), (n, a)


@pytest.mark.parametrize("n", [10**6, 2**62])
def test_singleton_tallies_memory_follows_the_group(n):
    # 9 points at K_G = 64 share one block of 2048 trials; the peak stays
    # within the block buffers (the uniforms and their scaled copy, one row
    # of bins and two boolean masks per trial) and the tally, with one byte
    # and one intp per trial for each point's singleton counts, at any N
    k, points = 64, [(n, a) for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    rows = netsim._MC_BUDGET // k
    bin_bytes = 4 if n < 2**31 - 1 else 8
    rng = np.random.default_rng(0)  # a process's first generator allocates ~1 MB once
    tracemalloc.start()
    try:
        tally = netsim._singleton_tallies(points, k, 2 * rows + 5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = rows * (2 * 8 * k + (k + 2) * (bin_bytes + 2))
    assert peak <= buffers + tally.nbytes + 16 * rows


def test_collision_probability_mc_np_integer_trials():
    # numpy trials would overflow trials**3 past 2^21 in int64
    m = model(n=1, alpha=0.5, kg=1)
    trials = 2**21 + 1
    got = collision_probability_mc(m, np.int64(trials), np.random.default_rng(2))
    assert got == collision_probability_mc(m, trials, np.random.default_rng(2))
    assert all(type(x) is float for x in got)


def test_collision_probability_mc_subnormal_coverage(rng):
    # N / alpha overflows to inf here; no nan or out-of-range float may
    # reach the index cast, and every UE is in outage
    est, stderr = collision_probability_mc(model(alpha=5e-324), 20_000, rng)
    assert est == 1.0 and stderr == 0.0


def test_collision_probability_mc_rejects_bad_trials(rng):
    with pytest.raises(ValueError):
        collision_probability_mc(model(), 0, rng)
