import numpy as np
import pytest

from cspilot.channel import build_sensing_matrix, default_params
from cspilot.tones import DESIGNED_TONES, DESIGNED_TONES_25, DESIGNED_TONES_100, mutual_coherence


@pytest.mark.parametrize(
    "tones, tap_count, mu",
    [(DESIGNED_TONES_25, 25, 0.1618), (DESIGNED_TONES_100, 100, 0.3043)],
    ids=["25-taps", "100-taps"],
)
def test_designed_sets_have_stated_coherence(tones, tap_count, mu):
    assert tones.size == 20
    assert np.unique(tones).size == 20
    assert mutual_coherence(tones, tap_count, 1000) == pytest.approx(mu, abs=5e-5)


@pytest.mark.parametrize("point", sorted(DESIGNED_TONES), ids=str)
def test_designed_table_key_matches_its_tone_set(point):
    # recover-bench looks the set up by (wt, tap_count, pilot_count)
    wt, tap_count, pilot_count = point
    tones = DESIGNED_TONES[point]
    assert tones.size == pilot_count
    assert np.array_equal(tones, np.sort(tones))
    params = default_params(
        bandwidth_time_product=wt, tap_count=tap_count, pilot_count=pilot_count
    )
    assert build_sensing_matrix(tones, params).rows.shape == (pilot_count, tap_count)


def test_mutual_coherence_matches_gram_matrix(rng):
    # the lag sum equals the largest off-diagonal entry of the normalized Gram
    tones = np.sort(rng.choice(1000, size=20, replace=False))
    cols = np.exp(-2j * np.pi * np.outer(tones, np.arange(25)) / 1000)
    gram = np.abs(cols.conj().T @ cols) / tones.size
    np.fill_diagonal(gram, 0.0)
    assert mutual_coherence(tones, 25, 1000) == pytest.approx(gram.max(), rel=1e-12)


@pytest.mark.parametrize(
    "tones, tap_count, wt",
    [
        ([0.5, 1.9], 25, 1000),  # fractional tones read 0.99999
        ([-3, 2000], 25, 1000),  # out of range tones read 0.99996
        ([], 25, 1000),  # no tones: nan
        ([21, 53], 1, 1000),  # one tap has no column pair
        ([21, 53], 2.5, 1000),
        ([21, 53], 25, 1000.5),
    ],
)
def test_mutual_coherence_rejects_bad_input(tones, tap_count, wt):
    with pytest.raises(ValueError):
        mutual_coherence(tones, tap_count, wt)
