import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from detection_oracle import (
    error_counts_loop,
    error_probability_mc_complex,
    error_probability_mc_loop,
)
from scipy.special import gammainc, gammaincc

from cspilot import detection
from cspilot.channel import OfdmParams
from cspilot.detection import (
    DetectionConfig,
    error_probability,
    error_probability_mc,
    min_threshold_for_network,
    optimal_threshold,
)
from cspilot.netsim import NetworkModel, collision_probability_mc


def _noise(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_config_validation():
    DetectionConfig(antenna_count=64, pathloss_power=10.0, threshold=5.0)
    DetectionConfig(antenna_count=64, pathloss_power=0.0, threshold=1.5)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=0, pathloss_power=1.0)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=-1.0)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=10.0, threshold=0.5)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=10.0, threshold=11.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=bad)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=0.0, threshold=bad)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=10.0, threshold=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5, 1.0, 11.0, 12.0])
def test_error_probability_rejects_bad_explicit_threshold(bad):
    # the rule of a preset threshold: finite, above 1, below 1 + gP
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=10.0, threshold=bad)


def test_error_probability_explicit_threshold_blind_point():
    # with gP = 0 any threshold above 1 is allowed, and the error is 1/2
    config = DetectionConfig(antenna_count=8, pathloss_power=0.0, threshold=3.0)
    assert error_probability(config) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        DetectionConfig(antenna_count=8, pathloss_power=0.0, threshold=0.5)


def test_blind_point_errs_exactly_half_the_time():
    # one law under both hypotheses: the two Poisson tails summed directly
    # missed 1/2 by an ulp in 31 of these 256 cases (M_BS = 1 at 1.5 among them)
    for m, threshold in itertools.product(range(1, 65), (1.01, 1.5, 2.0, 3.0)):
        config = DetectionConfig(antenna_count=m, pathloss_power=0.0, threshold=threshold)
        assert error_probability(config) == 0.5, (m, threshold)


_TAIL_MS = [1, 2, 3, 8, 32, 64, 128, 1024, 10**4, 10**5, 10**6]


def _thresholds(rng):
    """gP log-spaced over the range _crossing accepts, four times, with thresholds
    at the crossing, drawn inside (1, 1 + gP), and at both ends of that interval."""
    gp = np.append(10.0 ** np.linspace(-15, 308, 60), np.finfo(float).max)
    thresholds = np.concatenate(
        [
            detection._crossing(gp),
            1.0 + gp * rng.uniform(size=gp.size),
            np.full(gp.size, np.nextafter(1.0, 2.0)),
            np.nextafter(1.0 + gp, 0.0),
        ]
    )
    return np.tile(gp, 4), thresholds


@pytest.mark.parametrize("m", _TAIL_MS)
def test_poisson_tails_match_the_incomplete_gamma(m):
    # each tail at the energies _error_probability gives it: the lower one at
    # the silent energies m t (clamped to the largest double) and at gP = 0's
    # preset thresholds, the upper one at the active energies m t / (1 + gP);
    # scipy.special is the oracle, and where it is off (its large-m expansion
    # loses up to 1e-5 relative far in the upper tail at m = 10^6) mpmath at
    # 40 digits decides
    gp, thresholds = _thresholds(np.random.default_rng(m))
    with np.errstate(over="ignore"):  # m t may pass the largest double
        silent = np.minimum(m * thresholds, np.finfo(float).max)
    preset = m * np.array([1.0 + 1e-12, 1.01, 1.5, 3.0, 100.0])
    tol = 1e-12 if m <= 1024 else 1e-11
    for tail, x, want, exact in (
        (
            detection._lower_tail,
            np.concatenate([silent, preset]),
            gammaincc,
            lambda v: mpmath.gammainc(m, v, mpmath.inf, regularized=True),
        ),
        (
            detection._upper_tail,
            m * (thresholds / (1.0 + gp)),
            gammainc,
            lambda v: mpmath.gammainc(m, 0, v, regularized=True),
        ),
    ):
        got, oracle = tail(m, x), want(m, x)
        for i in np.flatnonzero(np.abs(got - oracle) > tol * oracle + 1e-300):
            with mpmath.workdps(40):
                ref = float(exact(x[i]))
            assert abs(got[i] - ref) <= tol * ref + 1e-300, (tail, x[i], got[i], oracle[i], ref)


@pytest.mark.parametrize("m", _TAIL_MS)
def test_every_threshold_puts_the_silent_energy_above_m_and_the_active_one_below(m):
    # a threshold in (1, 1 + gP), even one ulp inside, gives m t >= m and
    # m t / (1 + gP) <= m: the range in which each tail is summed away from
    # its mean; at m = 1 and the largest gP the active energy is subnormal
    gp, thresholds = _thresholds(np.random.default_rng(m))
    with np.errstate(over="ignore"):
        assert np.all(m * thresholds >= m)
    assert np.all(m * (thresholds / (1.0 + gp)) <= m)
    pe = detection._error_probability(m, gp, thresholds)
    assert np.all((0.0 <= pe) & (pe <= 1.0))


def test_error_probability_threshold_past_the_largest_double_over_m():
    # m t overflows: the silent survival is 0 and the active energy m t / (1 + gP)
    # is still formed, without a warning
    config = DetectionConfig(antenna_count=8, pathloss_power=1.5e308, threshold=1e308)
    want = 0.5 * gammainc(8, 8 * (1e308 / 1.5e308))
    assert error_probability(config) == pytest.approx(want, rel=1e-12)


def test_error_probability_mc_at_the_largest_powers(rng):
    # an active energy times 1 + gP may pass the largest double; inf still
    # exceeds the threshold, and no overflow warning is raised
    for gp in (1e308, np.finfo(float).max):
        assert error_probability_mc(DetectionConfig(antenna_count=4, pathloss_power=gp), 1000, rng) == 0.0


def test_energy_metric_noise_mean(rng):
    draws = _noise(rng, (100_000, 64))
    means = np.mean(np.abs(draws) ** 2, axis=1)
    assert abs(means.mean() - 1.0) < 0.01


def test_silent_energy_variance_slope(rng):
    # var of the energy metric under noise only scales like 1/M
    ms = np.array([16, 64, 256])
    variances = []
    for m in ms:
        draws = _noise(rng, (20_000, m))
        variances.append(np.var(np.mean(np.abs(draws) ** 2, axis=1)))
    slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
    assert abs(slope + 1.0) < 0.2


def test_active_energy_mean(rng):
    gp = 4.0
    m = 256
    h = _noise(rng, (10_000, m))
    z = _noise(rng, (10_000, m))
    y = np.sqrt(gp) * h + z
    mean = np.mean(np.abs(y) ** 2)
    assert abs(mean / (1.0 + gp) - 1.0) < 0.02


def test_optimal_threshold_closed_form():
    # equal-density crossing of the two Gamma laws: (1+gP) ln(1+gP) / gP,
    # independent of the antenna count
    for gp in (2.0, 10.0):
        expected = (1.0 + gp) * np.log(1.0 + gp) / gp
        for m in (16, 64, 128):
            got = optimal_threshold(DetectionConfig(antenna_count=m, pathloss_power=gp))
            assert type(got) is float
            assert got == pytest.approx(expected, abs=1e-12)


def test_optimal_threshold_matches_error_grid():
    # closed form vs a two-stage grid argmin of the analytic P_e
    found = optimal_threshold(DetectionConfig(64, 10.0))

    def pe(t):
        return error_probability(DetectionConfig(64, 10.0, threshold=t))

    coarse = np.linspace(1.001, 10.999, 2001)
    centre = coarse[int(np.argmin([pe(t) for t in coarse]))]
    fine = np.arange(centre - 5e-3, centre + 5e-3, 1e-6)
    best = fine[int(np.argmin([pe(t) for t in fine]))]
    assert abs(found - best) < 1e-5


def test_optimal_threshold_containment_and_monotonicity():
    big = optimal_threshold(DetectionConfig(antenna_count=64, pathloss_power=1e3))
    assert 1.0 < big < 1001.0
    prev = 1.0
    for gp in range(1, 11):
        t = optimal_threshold(DetectionConfig(antenna_count=32, pathloss_power=float(gp)))
        assert t > prev
        prev = t


def test_optimal_threshold_degenerate():
    with pytest.raises(ValueError):
        optimal_threshold(DetectionConfig(antenna_count=16, pathloss_power=0.0))
    # the crossing rounds to 1.0 in double precision
    for gp in (1e-16, 1e-17):
        with pytest.raises(ValueError):
            optimal_threshold(DetectionConfig(antenna_count=16, pathloss_power=gp))


@pytest.mark.parametrize("gp", [1e-8, 1e-10, 1e-12, 1e-15])
def test_optimal_threshold_small_power(gp):
    # the crossing is 1 + gP/2 + O(gP^2): still strictly inside (1, 1 + gP)
    t = optimal_threshold(DetectionConfig(antenna_count=16, pathloss_power=gp))
    assert 1.0 < t < 1.0 + gp
    assert t == pytest.approx(1.0 + gp / 2, abs=2.3e-16)


def test_error_probability_analytic_vs_mc(rng):
    config = DetectionConfig(antenna_count=32, pathloss_power=2.0)
    trials = 40_000
    analytic = error_probability(config)
    empirical = error_probability_mc(config, trials, rng)
    sigma = np.sqrt(max(analytic * (1 - analytic), 1e-12) / trials)
    assert abs(empirical - analytic) < 4 * sigma + 1e-3


def test_error_probability_mc_separated(rng):
    config = DetectionConfig(antenna_count=128, pathloss_power=10.0)
    assert error_probability_mc(config, 20_000, rng) < 1e-3


def test_error_probability_mc_blind(rng):
    config = DetectionConfig(antenna_count=64, pathloss_power=0.0, threshold=1.5)
    pe = error_probability_mc(config, 20_000, rng)
    sigma = np.sqrt(0.25 / 20_000)
    assert abs(pe - 0.5) < 3 * sigma


def test_error_probability_mc_antenna_scaling(rng):
    values = [
        error_probability_mc(
            DetectionConfig(antenna_count=m, pathloss_power=2.0), 30_000, rng
        )
        for m in (32, 64, 128)
    ]
    slack = 2 * np.sqrt(0.25 / 30_000)
    assert values[1] <= values[0] + slack
    assert values[2] <= values[1] + slack


def test_error_probability_mc_validates_trials(rng):
    with pytest.raises(ValueError):
        error_probability_mc(DetectionConfig(antenna_count=8, pathloss_power=1.0), 0, rng)


@pytest.mark.parametrize("m,gp", itertools.product((1, 2, 7, 32), (0.0, 0.3, 1.0, 4.0)))
def test_error_probability_mc_matches_loop_oracle(m, gp, monkeypatch):
    # the vectorized kernel consumes the generator as the per-trial loop does
    # and sums the same rows: every pe must be identical, across one and
    # several blocks and a short last one (a budget of 2^12 holds 4096 // M
    # trials, so 10001 trials span 3 to 79 blocks)
    monkeypatch.setattr(detection, "_MC_BUDGET", 2**12)
    config = DetectionConfig(antenna_count=m, pathloss_power=gp, threshold=1.5 if gp == 0 else None)
    for trials, seed in itertools.product((1, 2, 4095, 4097, 10001), (0, 1, 2)):
        got = error_probability_mc(config, trials, np.random.default_rng(seed))
        want = error_probability_mc_loop(config, trials, np.random.default_rng(seed))
        assert got == want, (trials, seed)


DISTRIBUTION_GRID = {1: (1.0, 4.0), 2: (1.0, 4.0), 7: (0.5, 2.0), 32: (0.3, 1.0), 128: (0.15, 0.5)}


@pytest.mark.parametrize(
    "m,gp", [(m, gp) for m, powers in DISTRIBUTION_GRID.items() for gp in powers]
)
def test_error_probability_mc_agrees_with_complex_gaussians(m, gp):
    # exponential energies against complex Gaussian samples, which share no
    # draw with them, and both against the Gamma closed form: within four
    # combined standard errors at thresholds across (1, 1 + gP)
    trials = 20_000
    for fraction in (0.2, 0.5, 0.8):
        config = DetectionConfig(antenna_count=m, pathloss_power=gp, threshold=1.0 + fraction * gp)
        fast = error_probability_mc(config, trials, np.random.default_rng(0))
        slow = error_probability_mc_complex(config, trials, np.random.default_rng(1))
        bound = 4.0 * np.sqrt((fast * (1.0 - fast) + slow * (1.0 - slow)) / trials)
        analytic = error_probability(config)
        assert abs(fast - slow) <= bound, (fraction, fast, slow)
        assert abs(fast - analytic) <= bound, (fraction, fast, analytic)
        assert abs(slow - analytic) <= bound, (fraction, slow, analytic)


@pytest.mark.parametrize("m,trials", [(1, 1), (3, 4096), (7, 4097), (32, 10001), (128, 9000)])
def test_error_probability_mc_draws_one_exponential_per_antenna(m, trials):
    # one received energy per antenna and trial: M exponentials and nothing
    # else, over one chunk, several and a short last one
    rng = np.random.default_rng(5)
    error_probability_mc(DetectionConfig(antenna_count=m, pathloss_power=1.0), trials, rng)
    fresh = np.random.default_rng(5)
    fresh.standard_exponential(m * trials)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_error_probability_mc_does_not_depend_on_chunk(monkeypatch):
    # blocks are filled row by row, so the budget sizes the buffer only
    config = DetectionConfig(antenna_count=3, pathloss_power=1.0)
    want = error_probability_mc(config, 1001, np.random.default_rng(3))
    monkeypatch.setattr(detection, "_MC_BUDGET", 21)  # 7 trials a block
    assert error_probability_mc(config, 1001, np.random.default_rng(3)) == want


def test_error_probability_mc_memory_follows_the_budget():
    # 4096 antennas: blocks of 128 trials, one budget of doubles; a block of
    # 4096 trials would take 4096^2 doubles, 134 MB
    config = DetectionConfig(antenna_count=4096, pathloss_power=1.0)
    tracemalloc.start()
    try:
        error_probability_mc(config, 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * detection._MC_BUDGET + 2**16


def _grid(antenna_counts):
    # gP = 0 at the pinned threshold, and each positive gP at its crossing
    # and at a preset threshold a fifth of the way into (1, 1 + gP)
    points = []
    for m in antenna_counts:
        points.append(DetectionConfig(m, 0.0, 1.5))
        for gp in (0.3, 4.0):
            points.append(DetectionConfig(m, gp, optimal_threshold(DetectionConfig(m, gp))))
            points.append(DetectionConfig(m, gp, 1.0 + 0.2 * gp))
    return points


@pytest.mark.parametrize("antenna_counts", [(4, 16, 8, 16), (1,), (7, 3, 7, 1), (2, 32)])
@pytest.mark.parametrize("rows", [7, 256])
def test_error_counts_match_the_grid_loop_oracle(antenna_counts, rows, monkeypatch):
    # unsorted and repeated antenna counts share one row of draws per trial;
    # blocks of an odd and an even row count, so 4097 trials span 17 to 586
    # blocks with a short last one, and odd trial counts end on an active trial
    monkeypatch.setattr(detection, "_MC_BUDGET", rows * max(antenna_counts))
    points = _grid(antenna_counts)
    for trials, seed in itertools.product((1, 2, 999, 4097), (0, 1)):
        got = detection.error_counts(points, trials, np.random.default_rng(seed))
        want = error_counts_loop(points, trials, np.random.default_rng(seed))
        assert got.tolist() == want, (trials, seed)


@pytest.mark.parametrize("antenna_counts,trials", [((4, 16, 8, 16), 1), ((1, 3), 4097), ((128, 32, 64), 10001)])
def test_error_counts_draw_the_largest_antenna_count_per_trial(antenna_counts, trials):
    # one row of max(M) exponentials per trial serves the whole grid
    rng = np.random.default_rng(5)
    detection.error_counts(_grid(antenna_counts), trials, rng)
    fresh = np.random.default_rng(5)
    fresh.standard_exponential(max(antenna_counts) * trials)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_error_counts_memory_follows_the_budget():
    # the grid's widest row sizes the one draw buffer, as in the test above;
    # the running sums and energies take a few rows of doubles beside it
    tracemalloc.start()
    try:
        detection.error_counts(_grid((4096, 1, 64)), 4096, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * detection._MC_BUDGET + 2**16


@pytest.mark.parametrize(
    "call",
    [
        lambda: DetectionConfig(antenna_count=2.5, pathloss_power=1.0),
        lambda: NetworkModel(cell_count=4.5, coverage_prob=0.5, group_size=4),
        lambda: error_probability_mc(
            DetectionConfig(antenna_count=8, pathloss_power=1.0), 100.5, np.random.default_rng(0)
        ),
        lambda: collision_probability_mc(
            NetworkModel(cell_count=4, coverage_prob=0.5, group_size=4),
            100.5,
            np.random.default_rng(0),
        ),
        lambda: OfdmParams(
            bandwidth_time_product=1000, tap_count=100.5, sparsity=4, pilot_count=20
        ),
        lambda: min_threshold_for_network([1.0, 10.0], 8.5, max_error_probability=1e-3),
        lambda: error_probability_mc(
            DetectionConfig(antenna_count=8, pathloss_power=1.0), True, np.random.default_rng(0)
        ),
        lambda: collision_probability_mc(
            NetworkModel(cell_count=4, coverage_prob=0.5, group_size=4),
            True,
            np.random.default_rng(0),
        ),
    ],
    ids=[
        "antenna_count",
        "cell_count",
        "detection_trials",
        "netsim_trials",
        "ofdm_tap_count",
        "network_antenna_count",
        "detection_trials_bool",
        "netsim_trials_bool",
    ],
)
def test_counts_must_be_integral(call):
    # a fractional or bool count is a ValueError up front, not a TypeError
    # deep inside
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_counts_accept_numpy_integers():
    config = DetectionConfig(antenna_count=np.int64(8), pathloss_power=1.0)
    assert 0.0 <= error_probability_mc(config, np.int32(10), np.random.default_rng(0)) <= 1.0
    model = NetworkModel(cell_count=np.int64(4), coverage_prob=0.5, group_size=np.int16(4))
    mean, _ = collision_probability_mc(model, np.int64(10), np.random.default_rng(0))
    assert 0.0 <= mean <= 1.0


def test_min_threshold_for_network():
    single = optimal_threshold(DetectionConfig(antenna_count=64, pathloss_power=3.0))
    assert min_threshold_for_network([3.0], 64) == pytest.approx(single)
    assert min_threshold_for_network([3.0, 3.0, 3.0], 64) == pytest.approx(single)

    t1 = optimal_threshold(DetectionConfig(antenna_count=64, pathloss_power=1.0))
    t10 = optimal_threshold(DetectionConfig(antenna_count=64, pathloss_power=10.0))
    assert min_threshold_for_network([1.0, 10.0], 64) == pytest.approx(min(t1, t10))

    with pytest.raises(ValueError):
        min_threshold_for_network([], 64)
    with pytest.raises(ValueError):
        min_threshold_for_network([0.0, 2.0], 64)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            min_threshold_for_network([2.0, bad], 64)


def test_min_threshold_qualification_cap():
    # gP=1 at 8 antennas is a noisy detector; a tight cap must exclude it
    loose = min_threshold_for_network([1.0, 10.0], 8)
    strict = min_threshold_for_network([1.0, 10.0], 8, max_error_probability=1e-3)
    t10 = optimal_threshold(DetectionConfig(antenna_count=8, pathloss_power=10.0))
    assert loose < strict
    assert strict == pytest.approx(t10)
    with pytest.raises(ValueError):
        min_threshold_for_network([1.0], 8, max_error_probability=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_threshold_rejects_non_finite_cap(bad):
    # a NaN cap used to fail every UE and blame them for it
    with pytest.raises(ValueError, match="max_error_probability"):
        min_threshold_for_network([1.0, 10.0], 8, max_error_probability=bad)
