"""Solver checks against closed-form optima, the dense-tableau oracle and HiGHS.

`solve_lp(v, V, t)` solves the Dantzig selector's LP ``min ||z||_1`` s.t.
``|V^T (V z) - v| <= t``.  General weighted-l1 LPs ``min c @ |z|`` s.t.
``lo <= A z <= hi`` (an entry of `lo` may be -inf) drive the same kernel
through `lp_oracle.compact_solve_l1`, which poses them with the identity
factor, under which the kernel's arithmetic is the dense tableau's.  An
``x >= 0`` LP is posed for it by appending the rows ``-z <= 0``.
"""

import lp_oracle
import numpy as np
import pytest
from lp_oracle import compact_solve_l1, dense_solve_l1
from scipy.optimize import linprog

import cspilot.simplex as simplex
from cspilot.channel import (
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from cspilot.recovery import _embed_lp, dantzig_epsilon
from cspilot.simplex import solve_lp
from cspilot.tones import DESIGNED_TONES_25, DESIGNED_TONES_100

_SCIPY_STATUS = {0: "optimal", 2: "infeasible"}


def _nonnegative(c, A, b):
    """The l1 LP whose extra rows ``-z <= 0`` make it ``min c @ x, A x <= b, x >= 0``."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    return c, np.vstack([A, -np.eye(c.size)]), np.concatenate([b, np.zeros(c.size)])


# LP dual of the textbook "max 3x + 5y with x <= 4, 2y <= 12, 3x + 2y <= 18":
# min 4u + 12v + 18w with u + 3w >= 3, 2v + 2w >= 5 -> 36 at (0, 1.5, 1)
TEXTBOOK_DUAL = _nonnegative(
    [4.0, 12.0, 18.0],
    [[-1.0, 0.0, -3.0], [0.0, -2.0, -2.0]],
    [-3.0, -5.0],
)


def _solve(c, A, b):
    """The kernel on ``A z <= b``: one-sided rows."""
    return compact_solve_l1(c, A, np.full(len(b), -np.inf), b)


def _objective(c, res):
    return float(np.asarray(c) @ np.abs(res.x))


def _assert_same_as_oracle(c, A, lo, hi):
    res, ref = compact_solve_l1(c, A, lo, hi), dense_solve_l1(c, A, lo, hi)
    assert res.status == ref.status
    assert res.iterations == ref.iterations
    if ref.x is None:
        assert res.x is None
    else:
        assert np.array_equal(res.x, ref.x)
    return res


def test_known_textbook_optimum():
    res = _solve(*TEXTBOOK_DUAL)
    assert res.status == "optimal"
    assert _objective(TEXTBOOK_DUAL[0], res) == pytest.approx(36.0, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.5, 1.0], abs=1e-9)
    assert res.iterations == 2


def test_dual_simplex_path_negative_rhs():
    # nonnegative costs with infeasible slack basis: min x1 + x2, x1 + x2 >= 4
    res = _solve(*_nonnegative([1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-4.0, 3.0, 3.0]))
    assert res.status == "optimal"
    assert _objective([1.0, 1.0], res) == pytest.approx(4.0, abs=1e-9)
    assert res.iterations == 2


def test_free_variables_take_negative_values():
    # min |z1| + 2|z2| with z1 + z2 <= -3: the cheaper z1 goes negative
    res = _solve([1.0, 2.0], [[1.0, 1.0]], [-3.0])
    assert res.status == "optimal"
    assert np.array_equal(res.x, [-3.0, 0.0])


def test_zero_objective_feasibility_only():
    res = _solve(*_nonnegative([0.0, 0.0], [[1.0, 1.0]], [1.0]))
    assert res.status == "optimal"
    assert np.all(res.x >= 0) and res.x.sum() <= 1.0


def test_infeasible_detected_by_dual():
    # z <= -1 and -z <= 0
    res = _solve(*_nonnegative([1.0], [[1.0]], [-1.0]))
    assert res.status == "infeasible"
    assert res.x is None
    assert res.iterations == 1


def test_soft_thresholds_with_the_identity_factor():
    # V = I decouples the rows |z_k - v_k| <= t: the l1 optimum shrinks each
    # v_k towards 0 by t, one pivot per row outside [-t, t]
    v = np.array([2.5, -3.0, 0.25, -0.5, 0.0, 4.0])
    for t in (0.5, 0.0, 5.0):
        res = solve_lp(v, np.eye(v.size), t)
        assert res.status == "optimal"
        assert res.x == pytest.approx(np.sign(v) * np.maximum(np.abs(v) - t, 0.0), abs=1e-12)
        assert res.iterations == np.count_nonzero(np.abs(v) > t)


def test_upper_side_violation_pivots_on_the_twin():
    # min |z| with 2 <= z <= 3: the slack 3 - z starts at 3, above its range
    # of 1, so the row is flipped and its twin z - 2 leaves at 0
    res = solve_lp([2.5], [[1.0]], 0.5)
    assert res.status == "optimal"
    assert np.array_equal(res.x, [2.0])
    assert res.iterations == 1
    # -5 <= z1 + z2 <= -4 in both rows of V^T V = [[1, 1], [1, 1]]: the
    # slacks start below 0, and z1 goes to the nearer bound
    res = solve_lp([-4.5, -4.5], [[1.0, 1.0]], 0.5)
    assert np.array_equal(res.x, [-4.0, 0.0])
    assert res.iterations == 1


def test_equality_rows_at_zero_width():
    # V^T V = [[1, 2], [2, 4]]; at t = 0 both rows read z1 + 2 z2 = 3
    res = solve_lp([3.0, 6.0], [[1.0, 2.0]], 0.0)
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 1.5], abs=1e-12)


def test_dantzig_form_infeasible():
    # V^T V = [[1, 1], [1, 1]]: the rows ask z1 + z2 to lie in [1/2, 3/2]
    # and in [-3/2, -1/2] at once
    res = solve_lp([1.0, -1.0], [[1.0, 1.0]], 0.5)
    assert res.status == "infeasible"
    assert res.x is None


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITER_FACTOR", 0)
    res = solve_lp([2.5, -3.0], np.eye(2), 0.5)
    assert res.status == "iteration-limit"
    assert res.x is None
    assert res.iterations == 0


def test_caps_are_multiples_of_three_p(monkeypatch):
    # p columns and p range rows: 2p + m = 3p split and slack variables
    seen = []
    kernel = simplex._dual_simplex

    def spy(W, V, cost, room, basis, max_iter, bland_after):
        seen.append((max_iter, bland_after))
        return kernel(W, V, cost, room, basis, max_iter, bland_after)

    monkeypatch.setattr(simplex, "_dual_simplex", spy)
    assert solve_lp([1.0, 2.0], np.eye(2), 0.5).status == "optimal"
    assert seen == [(50 * 6, 5 * 6)]


def test_dimension_validation():
    with pytest.raises(ValueError, match="V must be 2-D"):
        solve_lp([1.0], [1.0], 0.5)
    with pytest.raises(ValueError, match="V must be 2-D"):
        solve_lp([1.0], [[[1.0]]], 0.5)
    with pytest.raises(ValueError, match="v has shape"):
        solve_lp([1.0, 2.0], [[1.0]], 0.5)  # v does not match V's columns
    with pytest.raises(ValueError, match="v has shape"):
        solve_lp([[1.0]], [[1.0]], 0.5)  # v must be 1-D


@pytest.mark.parametrize(
    "where, bad", [(w, b) for w in ("v", "V") for b in (np.nan, np.inf, -np.inf)]
    + [("t", np.nan), ("t", np.inf)],
)
def test_non_finite_data_rejected(where, bad):
    data = {"v": np.array([2.5, -3.0]), "V": np.eye(2), "t": 0.5}
    if where == "t":
        data["t"] = bad
    else:
        data[where].flat[0] = bad
    with pytest.raises(ValueError, match=f"^{where} must be"):
        solve_lp(**data)


def test_lower_bound_above_upper_rejected():
    # a negative half-width puts each row's lower bound v - t above v + t
    with pytest.raises(ValueError, match="t must be nonnegative"):
        solve_lp([2.5, -3.0], np.eye(2), -1e-12)


def test_one_sided_and_range_rows_mixed():
    # min |z1| + 2|z2| with 1 <= z1 - z2 <= 2, z2 >= 1/2 (one-sided) and
    # -1 <= z1 + z2 <= 4: z2 = 1/2 and z1 = 3/2
    res = compact_solve_l1(
        [1.0, 2.0], [[1.0, -1.0], [0.0, -1.0], [1.0, 1.0]], [1.0, -np.inf, -1.0], [2.0, -0.5, 4.0]
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.5, 0.5], abs=1e-12)


def test_equality_row_has_zero_range():
    # lo == hi: the row's slack is fixed at 0
    res = compact_solve_l1([1.0, 1.0], [[1.0, 2.0]], [3.0], [3.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 1.5], abs=1e-12)
    res = compact_solve_l1([1.0, 1.0], [[1.0, 2.0], [1.0, 0.0]], [3.0, -np.inf], [3.0, -4.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([-4.0, 3.5], abs=1e-12)
    # z = 1 and z = 2 at once
    res = compact_solve_l1([1.0], [[1.0], [1.0]], [1.0, 2.0], [1.0, 2.0])
    assert res.status == "infeasible"


# LP dual of Beale's example, which cycles under the classic most-negative
# rule but not under steepest-edge pricing: min b @ y with -A^T y <= c,
# y >= 0, optimum 1/20 at (0, 1.5, 0.05)
_BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0])
_BEALE_A = np.array(
    [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
BEALE_DUAL = _nonnegative([0.0, 0.0, 1.0], -_BEALE_A.T, _BEALE_C)


def _one_sided(c, A, b):
    return c, A, np.full(len(b), -np.inf), b


def test_beale_dual_optimum():
    res = _assert_same_as_oracle(*_one_sided(*BEALE_DUAL))
    assert res.status == "optimal"
    assert _objective(BEALE_DUAL[0], res) == pytest.approx(0.05, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.5, 0.05], abs=1e-9)
    assert res.iterations == 4


def _circulant(first):
    return np.array([np.roll(first, k) for k in range(len(first))])


# A degenerate LP on which steepest-edge pricing cycles: zero costs and five
# equality rows A z = -1, A = [circ(a), circ(b)] with each block row the
# one above rotated right by one place.  From pivot 6 on the bases repeat
# every 10 pivots.
CYCLING_LP = (
    np.zeros(10),
    np.hstack([_circulant([1.5, 1.0, -1.0, 0.5, -1.0]), _circulant([0.5, -0.5, -1.0, -1.5, 2.5])]),
    np.full(5, -1.0),
    np.full(5, -1.0),
)


def test_degenerate_cycle_terminates():
    # the switch to Bland's rule at 5 * (2*10 + 5) = 125 pivots ends the cycle
    res = _assert_same_as_oracle(*CYCLING_LP)
    assert res.status == "optimal"
    assert np.max(np.abs(CYCLING_LP[1] @ res.x + 1.0)) <= 1e-12
    assert res.iterations == 128


def test_cycles_without_bland_rule(monkeypatch):
    # the switch is what ends the run above: without it the pivots cycle to
    # the cap of 50 (2p + m) pivots
    monkeypatch.setattr(simplex, "_BLAND_AFTER_FACTOR", 10**6)
    res = compact_solve_l1(*CYCLING_LP)
    assert res.status == "iteration-limit"
    assert res.iterations == 50 * (2 * 10 + 5)


def test_bland_rule_matches_dense_oracle(monkeypatch):
    # Bland's rule from the first pivot, on both sides
    monkeypatch.setattr(simplex, "_BLAND_AFTER_FACTOR", 0)
    monkeypatch.setattr(lp_oracle, "_BLAND_AFTER_FACTOR", 0)
    res = _assert_same_as_oracle(*_one_sided(*BEALE_DUAL))
    assert _objective(BEALE_DUAL[0], res) == pytest.approx(0.05, abs=1e-9)
    assert _assert_same_as_oracle(*CYCLING_LP).status == "optimal"
    rng = np.random.default_rng(20261019)
    for k in range(100):
        _assert_same_as_oracle(*_random_l1_instance(rng, integer=k % 2 == 0))

def _random_l1_instance(rng, integer):
    """``(c, A, lo, hi)``: about a third of the rows one-sided, the rest ranges."""
    m = int(rng.integers(1, 13))
    p = int(rng.integers(1, 9))
    if integer:
        # small integers make exact ratio-test ties, which the solver must
        # break by variable number exactly like the dense tableau; a width
        # of 0 makes an equality row
        A = rng.integers(-2, 3, size=(m, p)).astype(float)
        hi = rng.integers(-4, 3, size=m).astype(float)
        c = rng.integers(0, 3, size=p).astype(float)
        lo = hi - rng.integers(0, 4, size=m)
    else:
        A = rng.normal(size=(m, p))
        c = np.abs(rng.normal(size=p))
        if rng.random() < 0.5:
            # anchored at a feasible point
            center = A @ rng.normal(size=p)
            lo = center - rng.uniform(0.0, 1.0, size=m)
            hi = center + rng.uniform(0.0, 1.0, size=m)
        else:
            hi = rng.normal(size=m)
            lo = hi - rng.uniform(0.0, 2.0, size=m)
    lo[rng.random(m) < 0.3] = -np.inf
    return c, A, lo, hi


def test_matches_dense_oracle_on_random_l1_lps():
    rng = np.random.default_rng(20261017)
    statuses = []
    at_lower = 0
    for k in range(400):
        c, A, lo, hi = _random_l1_instance(rng, integer=k % 2 == 0)
        res = _assert_same_as_oracle(c, A, lo, hi)
        statuses.append(res.status)
        if res.status == "optimal":
            # a row held at its lower bound: the twin of its slack left there
            at_lower += bool(np.any((A @ res.x <= lo + 1e-9) & (lo < hi - 1e-9)))
    assert statuses.count("optimal") >= 200
    assert statuses.count("infeasible") >= 20
    assert at_lower >= 50


_SNR_DBS = (0.0, 10.0, 20.0, np.inf)


def _dantzig_lps(tap_count, tones, seed_tag, trials):
    # criterion 4's frozen channel draws, with tones and SNR varied
    params = default_params(tap_count=tap_count)
    for snr_db in _SNR_DBS:
        noise_var = 1.0 / 10.0 ** (snr_db / 10.0)  # 0.0 at inf dB: noiseless
        for t in range(trials):
            rng = np.random.default_rng([2024, seed_tag, t])
            h = sample_channel(params, rng)
            tone_set = tones if tones is not None else select_pilot_tones(params, rng)
            X = build_sensing_matrix(tone_set, params)
            y = synthesize_measurement(X, h, noise_var, rng)
            yield _embed_lp(y, X, dantzig_epsilon(noise_var, X))


@pytest.mark.parametrize(
    "tap_count, tones, seed_tag, trials",
    [
        (25, DESIGNED_TONES_25, 41, 6),
        (25, None, 41, 6),
        (100, DESIGNED_TONES_100, 42, 2),
        (100, None, 42, 2),
    ],
    ids=["25-designed", "25-random", "100-designed", "100-random"],
)
def test_matches_dense_oracle_on_dantzig_lps(tap_count, tones, seed_tag, trials):
    # the factored solve takes the dense tableau's pivots on V^T V; its
    # entries agree with the tableau's to rounding, not bit for bit
    for v, V, t in _dantzig_lps(tap_count, tones, seed_tag, trials):
        assert V.shape == (40, 2 * tap_count)
        res = solve_lp(v, V, t)
        ref = dense_solve_l1(np.ones(v.size), V.T @ V, v - t, v + t)
        assert res.status == ref.status == "optimal"
        assert res.iterations == ref.iterations
        assert np.max(np.abs(res.x - ref.x)) <= 1e-9


def _criterion_4_lps(step):
    # every step-th of criterion 4's frozen draws: 500 noiseless at 25 taps
    # and 200 at 20 dB and 100 taps, each on its designed tones
    for tap_count, tones, seed_tag, trials, noise_var in (
        (25, DESIGNED_TONES_25, 41, 500, 0.0),
        (100, DESIGNED_TONES_100, 42, 200, 0.01),
    ):
        params = default_params(tap_count=tap_count)
        X = build_sensing_matrix(tones, params)
        eps = dantzig_epsilon(noise_var, X)
        for t in range(0, trials, step):
            rng = np.random.default_rng([2024, seed_tag, t])
            h = sample_channel(params, rng)
            yield _embed_lp(y=synthesize_measurement(X, h, noise_var, rng), X=X, eps=eps)


def _highs_l1(c, A, lo, hi):
    """HiGHS on the split form, a range row posed as two inequality rows."""
    split = np.hstack([A, -A])
    two = np.isfinite(lo)
    return linprog(
        np.concatenate([c, c]),
        A_ub=np.vstack([split, -split[two]]),
        b_ub=np.concatenate([hi, -lo[two]]),
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )


def test_objective_matches_highs_on_criterion_4_draws():
    checked = 0
    for v, V, t in _criterion_4_lps(step=12):
        res = solve_lp(v, V, t)
        ref = _highs_l1(np.ones(v.size), V.T @ V, v - t, v + t)
        assert res.status == "optimal" and ref.status == 0
        assert abs(np.abs(res.x).sum() - ref.fun) <= 1e-7
        checked += 1
    assert checked == 42 + 17


def test_agrees_with_scipy_linprog():
    rng = np.random.default_rng(20240817)
    checked = infeasible = 0
    for _ in range(60):
        c, A, lo, hi = _random_l1_instance(rng, integer=False)
        p = c.size
        ref = _highs_l1(c, A, lo, hi)
        want = _SCIPY_STATUS.get(ref.status)
        if want is None:
            continue
        res = compact_solve_l1(c, A, lo, hi)
        assert res.status == want, f"status mismatch: {res.status} vs {want}"
        if want == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(_objective(c, res) - ref.fun) < 1e-7 * scale
            # HiGHS's split solution gives the same weighted l1 norm
            z_ref = ref.x[:p] - ref.x[p:]
            assert abs(c @ np.abs(z_ref) - ref.fun) < 1e-7 * scale
            # solution must be primal feasible
            assert np.all(A @ res.x <= hi + 1e-7) and np.all(A @ res.x >= lo - 1e-7)
            checked += 1
        else:
            infeasible += 1
    assert checked >= 20
    assert infeasible >= 1
