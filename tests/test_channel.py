
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspilot.channel import (
    OfdmParams,
    SensingMatrix,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)


def test_default_params_working_point():
    p = default_params()
    assert (p.bandwidth_time_product, p.tap_count, p.sparsity, p.pilot_count) == (
        1000,
        100,
        4,
        20,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sparsity=0),
        dict(sparsity=101),
        dict(tap_count=2000),
        dict(pilot_count=2),
        dict(pilot_count=1001),
        dict(sparsity=4.5),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        default_params(**kwargs)


@settings(max_examples=30, deadline=None)
@given(
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    good=st.floats(min_value=1e-6, max_value=1e6),
)
def test_non_finite_energy_and_noise_rejected(bad, good):
    p = default_params()
    rng = np.random.default_rng(0)
    h = sample_channel(p, rng)
    X = build_sensing_matrix(range(p.pilot_count), p)
    synthesize_measurement(X, h, good, rng)
    with pytest.raises(ValueError, match="noise_variance"):
        synthesize_measurement(X, h, bad, rng)


def test_sample_channel_support_size():
    p = default_params()
    h = sample_channel(p, np.random.default_rng(7))
    assert h.support.size == 4
    assert np.all(np.diff(h.support) > 0)
    assert np.array_equal(np.flatnonzero(h.taps), h.support)


def test_sample_channel_dense_boundary():
    p = default_params(tap_count=10, sparsity=10, pilot_count=10)
    h = sample_channel(p, np.random.default_rng(0))
    assert np.array_equal(h.support, np.arange(10))
    assert np.all(h.taps != 0)


def test_sample_channel_gain_energy():
    # unit-variance gains: total energy averages S
    p = default_params()
    rng = np.random.default_rng(3)
    total = sum(float(np.sum(np.abs(sample_channel(p, rng).taps) ** 2)) for _ in range(10_000))
    assert abs(total / 10_000 / p.sparsity - 1.0) < 0.05


def test_sample_channel_seed_reproducible():
    p = default_params()
    a = sample_channel(p, np.random.default_rng(42))
    b = sample_channel(p, np.random.default_rng(42))
    assert np.array_equal(a.taps, b.taps) and np.array_equal(a.support, b.support)


def test_select_tones_basic(rng):
    p = default_params()
    tones = select_pilot_tones(p, rng)
    assert tones.size == 20
    assert np.unique(tones).size == 20
    assert tones.min() >= 0 and tones.max() < 1000
    assert np.all(np.diff(tones) > 0)


def test_select_tones_forced_full_set(rng):
    p = OfdmParams(bandwidth_time_product=20, tap_count=20, sparsity=4, pilot_count=20)
    assert np.array_equal(select_pilot_tones(p, rng), np.arange(20))


def test_sensing_matrix_entries():
    p = OfdmParams(bandwidth_time_product=4, tap_count=2, sparsity=1, pilot_count=2)
    X = build_sensing_matrix([0, 1], p)
    assert np.allclose(X.rows[0], [1.0, 1.0])
    assert np.allclose(X.rows[1], [1.0, -1j])  # exp(-j pi/2)
    assert np.allclose(np.abs(X.rows), 1.0)


def test_sensing_matrix_sorted_rows_and_validation():
    p = default_params()
    X = build_sensing_matrix([30, 10, 20], p)
    assert np.array_equal(X.tone_set, [10, 20, 30])
    with pytest.raises(ValueError):
        build_sensing_matrix([0, 1000], p)
    with pytest.raises(ValueError):
        build_sensing_matrix([5, 5], p)


def test_sensing_matrix_rejects_fractional_tones():
    # a cast would build the matrix of tones 0 and 1
    p = default_params()
    with pytest.raises(ValueError, match="tone_set must be integers"):
        build_sensing_matrix([0.5, 1.9], p)
    X = build_sensing_matrix(np.array([1, 0], dtype=np.uint16), p)
    assert X.tone_set.tolist() == [0, 1]
    assert np.array_equal(X.rows, build_sensing_matrix([0, 1], p).rows)


def test_sparse_channel_rejects_fractional_support():
    from cspilot.channel import SparseChannel

    taps = np.array([0.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="support must be integers"):
        SparseChannel(taps=taps, support=[1.2])
    assert SparseChannel(taps=taps, support=np.array([1], dtype=np.int8)).support.tolist() == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_channel_rejects_non_finite_taps(bad):
    from cspilot.channel import SparseChannel

    with pytest.raises(ValueError, match="taps must be finite"):
        SparseChannel(taps=[bad, 0, 0], support=[0])
    with pytest.raises(ValueError, match="taps must be finite"):
        SparseChannel(taps=[1.0, complex(0.0, bad), 0], support=[0, 1])


def test_sensing_matrix_rows_are_read_only():
    # estimators cache operators derived from rows on the matrix itself
    p = default_params()
    source = np.ones((20, 100), dtype=complex)
    X = SensingMatrix(rows=source, tone_set=np.arange(20))
    with pytest.raises(ValueError):
        X.rows[0, 0] = 2.0
    source[0, 0] = 2.0  # the matrix keeps its own copy
    assert X.rows[0, 0] == 1.0
    with pytest.raises(AttributeError):
        X.rows = source
    X = build_sensing_matrix(select_pilot_tones(p, np.random.default_rng(0)), p)
    with pytest.raises(ValueError):
        X.rows[:, [0, 1]] = X.rows[:, [1, 0]]


def test_measurement_zero_channel():
    p = default_params(tap_count=10, sparsity=10, pilot_count=10)
    h = sample_channel(p, np.random.default_rng(0))
    silent = type(h)(taps=np.zeros(10, dtype=complex), support=np.array([], dtype=int))
    X = build_sensing_matrix(range(10), p)
    y = synthesize_measurement(X, silent, 0.0, np.random.default_rng(0))
    assert np.all(y == 0)


def test_measurement_delay_zero_tap():
    from cspilot.channel import SparseChannel

    p = default_params()
    taps = np.zeros(100, dtype=complex)
    taps[0] = 1.0
    h = SparseChannel(taps=taps, support=np.array([0]))
    X = build_sensing_matrix([3, 77, 512], p)
    y = synthesize_measurement(X, h, 0.0, np.random.default_rng(0))
    assert np.allclose(y, 1.0)  # the all-ones column


def test_measurement_matches_dft_oracle(rng):
    # X h must equal the length-WT DFT of the zero-padded taps, subsampled
    # at the selected tones
    p = default_params()
    h = sample_channel(p, rng)
    tones = select_pilot_tones(p, rng)
    X = build_sensing_matrix(tones, p)
    y = synthesize_measurement(X, h, 0.0, rng)
    padded = np.zeros(p.bandwidth_time_product, dtype=complex)
    padded[: p.tap_count] = h.taps
    oracle = np.fft.fft(padded)[tones]
    assert np.max(np.abs(y - oracle)) < 1e-10


def test_measurement_energy_identity(rng):
    p = default_params()
    h = sample_channel(p, rng)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = synthesize_measurement(X, h, 0.0, rng)
    assert np.sum(np.abs(y) ** 2) == np.sum(np.abs(X.rows @ h.taps) ** 2)


def test_measurement_noise_variance():
    p = default_params()
    h = sample_channel(p, np.random.default_rng(5))
    X = build_sensing_matrix(select_pilot_tones(p, np.random.default_rng(5)), p)
    clean = synthesize_measurement(X, h, 0.0, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    noise_energy = 0.0
    n_draws = 2000
    for _ in range(n_draws):
        y = synthesize_measurement(X, h, 0.25, rng)
        noise_energy += float(np.sum(np.abs(y - clean) ** 2))
    per_entry = noise_energy / (n_draws * X.rows.shape[0])
    assert abs(per_entry / 0.25 - 1.0) < 0.05


def test_measurement_dimension_mismatch(rng):
    p = default_params()
    h = sample_channel(p, rng)
    X = build_sensing_matrix(range(20), default_params(tap_count=50))
    with pytest.raises(ValueError):
        synthesize_measurement(X, h, 0.0, rng)
