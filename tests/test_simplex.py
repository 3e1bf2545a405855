"""Solver checks against closed-form optima and scipy's HiGHS-backed linprog."""

import numpy as np
import pytest
from scipy.optimize import linprog

from cspilot.simplex import solve_lp

_SCIPY_STATUS = {0: "optimal", 2: "infeasible"}

# LP dual of the textbook "max 3x + 5y with x <= 4, 2y <= 12, 3x + 2y <= 18":
# min 4u + 12v + 18w with u + 3w >= 3, 2v + 2w >= 5 -> 36 at (0, 1.5, 1)
TEXTBOOK_DUAL = (
    [4.0, 12.0, 18.0],
    [[-1.0, 0.0, -3.0], [0.0, -2.0, -2.0]],
    [-3.0, -5.0],
)


def test_known_textbook_optimum():
    res = solve_lp(*TEXTBOOK_DUAL)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(36.0, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.5, 1.0], abs=1e-9)
    assert res.iterations == 2


def test_dual_simplex_path_negative_rhs():
    # nonnegative costs with infeasible slack basis: min x1 + x2, x1 + x2 >= 4
    res = solve_lp(
        [1.0, 1.0],
        [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
        [-4.0, 3.0, 3.0],
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-9)


def test_zero_objective_feasibility_only():
    res = solve_lp([0.0, 0.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.objective == 0.0


def test_infeasible_detected_by_dual():
    res = solve_lp([1.0], [[1.0]], [-1.0])
    assert res.status == "infeasible"
    assert res.x is None


def test_iteration_cap_reported():
    res = solve_lp(*TEXTBOOK_DUAL, max_iter=1)
    assert res.status == "iteration-limit"
    assert res.x is None


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 2.0], [[1.0]], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A_ub", "b_ub"])
def test_non_finite_data_rejected(where, bad):
    data = {key: np.array(value) for key, value in zip(("c", "A_ub", "b_ub"), TEXTBOOK_DUAL)}
    data[where].flat[0] = bad
    with pytest.raises(ValueError):
        solve_lp(data["c"], data["A_ub"], data["b_ub"])


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        solve_lp([-3.0, 5.0], [[1.0, 0.0]], [4.0])


def test_beale_degenerate_cycle_terminates():
    # LP dual of Beale's example, which cycles under the classic
    # most-negative rule: min b @ y with -A^T y <= c, optimum 1/20.  Its 42
    # pivots pass the switch to Bland's rule at 5 * (3 + 4) = 35.
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(b, -A.T, c)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.05, abs=1e-9)
    assert res.iterations == 42


def _random_instance(rng):
    m = int(rng.integers(2, 11))
    n = int(rng.integers(2, 9))
    A = rng.normal(size=(m, n))
    c = np.abs(rng.normal(size=n))
    if rng.random() < 0.5:
        # anchored at a feasible nonnegative point
        x0 = rng.uniform(0.0, 2.0, size=n)
        b = A @ x0 + rng.uniform(0.0, 1.0, size=m)
    else:
        b = rng.normal(size=m)
    return c, A, b


def test_agrees_with_scipy_linprog():
    rng = np.random.default_rng(20240817)
    checked = infeasible = 0
    for _ in range(60):
        c, A, b = _random_instance(rng)
        ref = linprog(
            c,
            A_ub=A,
            b_ub=b,
            bounds=(0, None),
            method="highs",
            options={"presolve": False},
        )
        want = _SCIPY_STATUS.get(ref.status)
        if want is None:
            continue
        res = solve_lp(c, A, b)
        assert res.status == want, f"status mismatch: {res.status} vs {want}"
        if want == "optimal":
            scale = 1.0 + abs(ref.fun)
            assert abs(res.objective - ref.fun) < 1e-7 * scale
            # solution must be primal feasible
            assert np.all(res.x >= -1e-9)
            assert np.all(A @ res.x <= b + 1e-7)
            checked += 1
        else:
            infeasible += 1
    assert checked >= 20
    assert infeasible >= 1


def test_objective_consistent_with_solution(rng):
    for _ in range(10):
        c, A, b = _random_instance(rng)
        res = solve_lp(c, A, b)
        if res.status == "optimal":
            assert res.objective == pytest.approx(float(c @ res.x), abs=1e-9)
            assert res.iterations <= 50 * (len(c) + len(b))
