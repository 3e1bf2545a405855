import pytest

from summary import quartiles, spread, summarize, tail, verdict


@pytest.mark.parametrize(
    "n, percentile",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = list(range(n, 0, -1))  # unsorted on purpose
    found = tail(values)
    if percentile is None:
        assert found is None
        return
    pct, value = found
    assert pct == percentile
    assert sum(v > value for v in values) >= 10


def test_tail_value_is_the_nearest_rank():
    assert tail(range(1, 101)) == (90.0, 90.0)


def test_summarize_reports_median_count_and_tail():
    summary = summarize([3.0, 1.0, 2.0], "s")
    assert summary == {"value": 2.0, "unit": "s", "samples": 3, "tail": None}


def test_spread_and_quartiles():
    values = [float(v) for v in range(1, 11)]
    q1, q3 = quartiles(values)
    assert (q1, q3) == (2.75, 8.25)
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert spread([4.0]) == 0.0


OLD = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    new = [v * 0.8 for v in OLD]
    assert verdict(OLD, new, "lower", 0.1) == "improved"
    one_loss = list(new)
    one_loss[0] = 11.0
    assert verdict(OLD, one_loss, "lower", 0.1) == "improved"
    two_losses = list(one_loss)
    two_losses[1] = 11.0
    assert verdict(OLD, two_losses, "lower", 0.1) != "improved"


def test_verdict_improved_respects_direction():
    new = [v * 1.2 for v in OLD]
    assert verdict(OLD, new, "higher", 0.1) == "improved"
    assert verdict(OLD, new, "lower", 0.1) == "regressed"


def test_verdict_small_gain_within_iqr_is_not_improved():
    new = [v - 0.05 for v in OLD]
    assert verdict(OLD, new, "lower", 0.1) == "unchanged"


def test_verdict_regressed_beyond_bound():
    assert verdict(OLD, [v * 1.15 for v in OLD], "lower", 0.1) == "regressed"
    assert verdict(OLD, [v * 1.05 for v in OLD], "lower", 0.1) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert verdict(OLD, wide, "lower", 0.1) == "unresolved"
    assert verdict(wide, wide, "lower", 0.1) == "unresolved"
    # every new run better than every old run settles it despite the spread
    assert verdict(wide, [v * 0.2 for v in wide], "lower", 0.1) == "improved"


def test_verdict_without_bound_uses_the_mirror_of_improved():
    assert verdict(OLD, [v * 1.2 for v in OLD], "lower", None) == "regressed"
    assert verdict(OLD, OLD, "lower", None) == "unchanged"


def test_verdict_needs_ten_pairs_to_call_a_difference():
    assert verdict([12653.0], [12653.0], "lower", None) == "unchanged"
    assert verdict([1.0], [0.5], "lower", None) == "unresolved"
    assert verdict(OLD[:9], [v * 2 for v in OLD[:9]], "lower", 0.1) == "unresolved"


def test_verdict_rejects_bad_direction():
    with pytest.raises(ValueError):
        verdict(OLD, OLD, "faster", 0.1)
