
import numpy as np
import pytest

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
    m = model()
    p = default_params()
    g0 = reuse_gain(0.0, m, p)
    assert g0 == pytest.approx((320 / 21) * (15 / 16) ** 15, abs=1e-9)
    assert g0 == pytest.approx(5.787617612422791, abs=1e-9)
    gains = [reuse_gain(q, m, p) for q in (0.0, 0.1, 0.2, 0.3)]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_reuse_gain_ratio_consistency():
    # G(p_out) relates to G(0) by ((1 - (1-p_out)/N)/(1 - 1/N))**(K_G-1)
    m = model()
    p = default_params()
    ratio = reuse_gain(0.3, m, p) / reuse_gain(0.0, m, p)
    expected = ((1 - 0.7 / 16) / (1 - 1 / 16)) ** 15
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_reuse_gain_domain():
    m = model()
    p = default_params()
    with pytest.raises(ValueError):
        reuse_gain(-0.1, m, p)
    with pytest.raises(ValueError):
        reuse_gain(1.0, m, p)


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


def test_collision_probability_mc_rejects_bad_trials(rng):
    with pytest.raises(ValueError):
        collision_probability_mc(model(), 0, rng)
