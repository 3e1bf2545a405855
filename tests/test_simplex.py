"""Solver checks against the dense-tableau oracle, closed-form optima and HiGHS.

`solve_lp` solves ``min c @ |z|`` s.t. ``U @ (V @ z) <= b_ub`` with z free.
A constraint matrix ``A`` is posed with the identity factor, ``(A, I)``,
under which the solver's arithmetic is the dense tableau's.  An ``x >= 0``
LP is posed for it by appending the rows ``-z <= 0``.
"""

import numpy as np
import pytest
from lp_oracle import dense_solve_l1
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


def _solve(c, A, b, **kw):
    """`solve_lp` on the constraint matrix A, given as ``A @ I``."""
    return solve_lp(c, A, np.eye(np.shape(A)[1]), b, **kw)


def _assert_same_as_oracle(c, A, b):
    res, ref = _solve(c, A, b), dense_solve_l1(c, A, b)
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
    assert res.objective == pytest.approx(36.0, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.5, 1.0], abs=1e-9)
    assert res.iterations == 2


def test_dual_simplex_path_negative_rhs():
    # nonnegative costs with infeasible slack basis: min x1 + x2, x1 + x2 >= 4
    res = _solve(*_nonnegative([1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-4.0, 3.0, 3.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-9)
    assert res.iterations == 2


def test_free_variables_take_negative_values():
    # min |z1| + 2|z2| with z1 + z2 <= -3: the cheaper z1 goes negative
    res = _solve([1.0, 2.0], [[1.0, 1.0]], [-3.0])
    assert res.status == "optimal"
    assert np.array_equal(res.x, [-3.0, 0.0])
    assert res.objective == 3.0


def test_zero_objective_feasibility_only():
    res = _solve(*_nonnegative([0.0, 0.0], [[1.0, 1.0]], [1.0]))
    assert res.status == "optimal"
    assert res.objective == 0.0


def test_infeasible_detected_by_dual():
    # z <= -1 and -z <= 0
    res = _solve(*_nonnegative([1.0], [[1.0]], [-1.0]))
    assert res.status == "infeasible"
    assert res.x is None
    assert res.iterations == 1


def test_iteration_cap_reported():
    res = _solve(*TEXTBOOK_DUAL, max_iter=1)
    assert res.status == "iteration-limit"
    assert res.x is None
    assert res.iterations == 1


def test_dimension_validation():
    one = [[1.0]]
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], one, one, [1.0])  # c does not match V's columns
    with pytest.raises(ValueError):
        solve_lp([1.0], one, one, [1.0, 2.0])  # b_ub does not match U's rows
    with pytest.raises(ValueError):
        solve_lp([1.0], [[1.0, 2.0]], one, [1.0])  # U's columns are not V's rows
    with pytest.raises(ValueError):
        solve_lp([1.0], [1.0], one, [1.0])  # U must be 2-D
    with pytest.raises(ValueError):
        solve_lp([1.0], one, [1.0], [1.0])  # V must be 2-D


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A_ub", "V", "b_ub"])
def test_non_finite_data_rejected(where, bad):
    # the constraint matrix A_ub is posed as the factor U, with V = I
    c, A, b = TEXTBOOK_DUAL
    data = {"c": c.copy(), "A_ub": A.copy(), "V": np.eye(c.size), "b_ub": b.copy()}
    data[where].flat[0] = bad
    with pytest.raises(ValueError):
        solve_lp(data["c"], data["A_ub"], data["V"], data["b_ub"])


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        solve_lp([-3.0, 5.0], [[1.0, 0.0]], np.eye(2), [4.0])


# LP dual of Beale's example, which cycles under the classic most-negative
# rule: min b @ y with -A^T y <= c, y >= 0, optimum 1/20 at (0, 1.5, 0.05)
_BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0])
_BEALE_A = np.array(
    [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
BEALE_DUAL = _nonnegative([0.0, 0.0, 1.0], -_BEALE_A.T, _BEALE_C)


def test_beale_degenerate_cycle_terminates():
    # 71 pivots pass the switch to Bland's rule at 5 * (2*3 + 7) = 65
    res = _assert_same_as_oracle(*BEALE_DUAL)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.05, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.5, 0.05], abs=1e-9)
    assert res.iterations == 71


def test_beale_cycles_without_bland_rule(monkeypatch):
    # the switch is what ends the run above: without it the pivots cycle
    monkeypatch.setattr(simplex, "_BLAND_AFTER_FACTOR", 10**6)
    res = _solve(*BEALE_DUAL, max_iter=1000)
    assert res.status == "iteration-limit"


def _random_l1_instance(rng, integer):
    m = int(rng.integers(1, 13))
    p = int(rng.integers(1, 9))
    if integer:
        # small integers make exact ratio-test ties, which the solver must
        # break by variable number exactly like the dense tableau
        A = rng.integers(-2, 3, size=(m, p)).astype(float)
        b = rng.integers(-4, 3, size=m).astype(float)
        c = rng.integers(0, 3, size=p).astype(float)
        return c, A, b
    A = rng.normal(size=(m, p))
    c = np.abs(rng.normal(size=p))
    if rng.random() < 0.5:
        # anchored at a feasible point
        b = A @ rng.normal(size=p) + rng.uniform(0.0, 1.0, size=m)
    else:
        b = rng.normal(size=m)
    return c, A, b


def test_matches_dense_oracle_on_random_l1_lps():
    rng = np.random.default_rng(20261017)
    statuses = []
    for k in range(400):
        c, A, b = _random_l1_instance(rng, integer=k % 2 == 0)
        statuses.append(_assert_same_as_oracle(c, A, b).status)
    assert statuses.count("optimal") >= 200
    assert statuses.count("infeasible") >= 20


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
    # the factored solve takes the dense tableau's pivots on U @ V; its
    # entries agree with the tableau's to rounding, not bit for bit
    for c, U, V, b in _dantzig_lps(tap_count, tones, seed_tag, trials):
        assert U.shape == (4 * tap_count, 40) and V.shape == (40, 2 * tap_count)
        res, ref = solve_lp(c, U, V, b), dense_solve_l1(c, U @ V, b)
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


def test_objective_matches_highs_on_criterion_4_draws():
    checked = 0
    for c, U, V, b in _criterion_4_lps(step=12):
        res = solve_lp(c, U, V, b)
        A = U @ V
        ref = linprog(
            np.concatenate([c, c]),
            A_ub=np.hstack([A, -A]),
            b_ub=b,
            bounds=(0, None),
            method="highs",
            options={"presolve": False},
        )
        assert res.status == "optimal" and ref.status == 0
        assert abs(res.objective - ref.fun) <= 1e-7
        checked += 1
    assert checked == 42 + 17


def test_agrees_with_scipy_linprog():
    rng = np.random.default_rng(20240817)
    checked = infeasible = 0
    for _ in range(60):
        c, A, b = _random_l1_instance(rng, integer=False)
        p = c.size
        ref = linprog(
            np.concatenate([c, c]),
            A_ub=np.hstack([A, -A]),
            b_ub=b,
            bounds=(0, None),
            method="highs",
            options={"presolve": False},
        )
        want = _SCIPY_STATUS.get(ref.status)
        if want is None:
            continue
        res = _solve(c, A, b)
        assert res.status == want, f"status mismatch: {res.status} vs {want}"
        if want == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(res.objective - ref.fun) < 1e-7 * scale
            # HiGHS's split solution gives the same weighted l1 norm
            z_ref = ref.x[:p] - ref.x[p:]
            assert abs(c @ np.abs(z_ref) - ref.fun) < 1e-7 * scale
            # solution must be primal feasible
            assert np.all(A @ res.x <= b + 1e-7)
            checked += 1
        else:
            infeasible += 1
    assert checked >= 20
    assert infeasible >= 1


def test_objective_consistent_with_solution(rng):
    for _ in range(10):
        c, A, b = _random_l1_instance(rng, integer=False)
        res = _solve(c, A, b)
        if res.status == "optimal":
            assert res.objective == pytest.approx(float(c @ np.abs(res.x)), abs=1e-9)
            assert res.iterations <= 50 * (2 * len(c) + len(b))
