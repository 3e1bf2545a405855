import sys
from pathlib import Path

import pytest

from tracer import Span, Tracer, covered, layer_metrics, self_times


def span(name, start, end, span_id, parent_id=0, attrs=None):
    return Span(name, start, end, span_id, parent_id, "run", attrs)


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0, 1),
        span("a", 1.0, 4.0, 2, 1),
        span("a.inner", 2.0, 3.0, 3, 2),
        span("b", 5.0, 7.0, 4, 1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0, 1),
        span("x", 1.0, 5.0, 2, 1),
        span("y", 3.0, 8.0, 3, 1),  # overlaps x: union is [1, 8]
        span("z", 9.0, 12.0, 4, 1),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_self_time_subtracts_only_named_children():
    spans = [
        span("root", 0.0, 10.0, 1),
        span("lp", 1.0, 4.0, 2, 1),
        span("helper", 5.0, 6.0, 3, 1),
    ]
    assert self_times(spans, {"lp"})[1] == pytest.approx(10.0 - 3.0)
    assert self_times(spans)[1] == pytest.approx(10.0 - 3.0 - 1.0)


def test_covered_ignores_intervals_outside_the_window():
    assert covered([(-3.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0
    assert covered([(2.0, 4.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)


def test_layer_metrics_from_synthetic_spans():
    lp = {"iterations": 10, "optimal": True, "rows": 4, "cols": 6}
    spans = [
        span("cli.main", 0.0, 10.0, 1),
        span("recovery.dantzig_recover", 1.0, 5.0, 2, 1),
        span("simplex.solve_lp", 2.0, 4.0, 3, 2, lp),
        span("recovery.threshold_support", 4.2, 4.6, 6, 2),  # not subtracted
        span("recovery.dantzig_recover", 6.0, 7.0, 4, 1),
        span("simplex.solve_lp", 6.0, 6.5, 5, 4, {**lp, "optimal": False, "iterations": 30}),
    ]
    names = [
        "simplex.solve_lp.s",
        "simplex.solve_lp.calls",
        "simplex.solve_lp.pivots",
        "simplex.solve_lp.ms_per_pivot",
        "simplex.solve_lp.optimal_ratio",
        "simplex.solve_lp.computed_mb",
        "recovery.dantzig_recover.self_s",
        "cli.self_s",
        "pilots.superpose.calls",
        "trace.overhead_ratio",
    ]
    wrapped = {"cli.main", "recovery.dantzig_recover", "simplex.solve_lp"}
    values, missing = layer_metrics(names, spans, wrapped, overhead_ratio=1.25)
    assert values["simplex.solve_lp.s"] == pytest.approx(2.5)
    assert values["simplex.solve_lp.calls"] == 2
    assert values["simplex.solve_lp.pivots"] == 40
    assert values["simplex.solve_lp.ms_per_pivot"] == pytest.approx(2500.0 / 40)
    assert values["simplex.solve_lp.optimal_ratio"] == 0.5
    assert values["simplex.solve_lp.computed_mb"] == pytest.approx(40 * 2 * 8 * 5 * 11 / 1e6)
    assert values["recovery.dantzig_recover.self_s"] == pytest.approx((4.0 - 2.0) + (1.0 - 0.5))
    assert values["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert values["pilots.superpose.calls"] == 0
    assert values["trace.overhead_ratio"] == 1.25
    assert missing == ["pilots.superpose"]


def test_unknown_stat_is_rejected():
    with pytest.raises(ValueError):
        layer_metrics(["simplex.solve_lp.bogus"], [], set(), 1.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    src = Path(__file__).resolve().parents[2] / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np

        import cspilot
        from cspilot import recovery, simplex
    finally:
        sys.path.remove(str(src))
    originals = (simplex.solve_lp, recovery.solve_lp, cspilot.solve_lp)
    assert originals[0] is originals[1] is originals[2]

    tracer = Tracer("test")
    tracer.install()
    try:
        assert recovery.solve_lp is not originals[0]
        assert recovery.solve_lp is simplex.solve_lp is cspilot.solve_lp
        params = cspilot.default_params(tap_count=25)
        rng = np.random.default_rng(0)
        h = cspilot.sample_channel(params, rng)
        X = cspilot.build_sensing_matrix(cspilot.select_pilot_tones(params, rng), params)
        y = cspilot.synthesize_measurement(X, h, params, 0.0, rng)
        cspilot.dantzig_recover(y, X, params, cspilot.DantzigConfig(epsilon=1e-6))
    finally:
        tracer.uninstall()
    assert (simplex.solve_lp, recovery.solve_lp, cspilot.solve_lp) == originals

    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["recovery.dantzig_recover"], by_name["simplex.solve_lp"]
    assert inner.parent_id == outer.span_id
    assert inner.attrs["optimal"] and inner.attrs["iterations"] > 0
    assert (inner.attrs["rows"], inner.attrs["cols"]) == (100, 100)
    assert {"cli.main", "simplex.solve_lp", "pilots.superpose"} <= tracer.wrapped
