import numpy as np
import pytest
from debias_oracle import ls_refit, stepwise_select_lstsq
from omp_oracle import omp_lstsq

from cspilot import recovery, simplex
from cspilot.channel import (
    OfdmParams,
    SensingMatrix,
    SparseChannel,
    _partial_dft,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from cspilot.recovery import (
    CANDIDATE_CAP,
    MAGNITUDE_FLOOR,
    NMSE_FLOOR_DB,
    NOISELESS_EPSILON,
    SELECTION_TAU,
    _above,
    _dense_ls,
    _embed_lp,
    _nmse_db,
    _omp,
    comb_tone_set,
    dantzig_epsilon,
    _stepwise_select,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
    threshold_support,
)
from cspilot.simplex import solve_lp
from cspilot.tones import DESIGNED_TONES_25, DESIGNED_TONES_100

_NON_FINITE = [np.nan, np.inf, -np.inf]


def _single_tap_channel(params, delay=0, gain=1.0):
    taps = np.zeros(params.tap_count, dtype=complex)
    taps[delay] = gain
    return SparseChannel(taps=taps)


@pytest.mark.parametrize("bad", [*_NON_FINITE, -1.0])
def test_noise_variance_rejected(rng, bad):
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    with pytest.raises(ValueError, match="noise_variance"):
        dantzig_epsilon(bad, X)
    with pytest.raises(ValueError, match="noise_variance"):
        dantzig_recover(np.ones(20, dtype=complex), X, bad)


def test_scaled_epsilon_rule():
    p = default_params()
    X = build_sensing_matrix(DESIGNED_TONES_100, p)
    # sigma sqrt(M) sqrt(2 ln D) = 0.1 * sqrt(20) * sqrt(2 ln 100)
    assert dantzig_epsilon(0.01, X) == pytest.approx(1.3572280848830225, abs=1e-12)
    assert dantzig_epsilon(0.0, X) == NOISELESS_EPSILON == 1e-6


def test_epsilon_follows_the_matrix_shape():
    # M and D come from the matrix: the 100-tone comb gets 0.1 sqrt(100)
    # sqrt(2 ln 100), which the true channel meets in most 20 dB draws; the
    # level of a 20-tone matrix would exclude it nearly always
    p = default_params()
    comb = build_sensing_matrix(comb_tone_set(p), p)
    eps = dantzig_epsilon(0.01, comb)
    assert eps == pytest.approx(0.1 * np.sqrt(100) * np.sqrt(2 * np.log(100)), rel=1e-15)
    rng = np.random.default_rng(2024)
    feasible = 0
    for _ in range(40):
        h = sample_channel(p, rng)
        y = synthesize_measurement(comb, h, 0.01, rng)
        corr = comb.rows.conj().T @ (y - comb.rows @ h.taps)
        feasible += max(np.abs(corr.real).max(), np.abs(corr.imag).max()) <= eps / np.sqrt(2)
    assert feasible > 20


def test_dantzig_single_tap_noiseless(rng):
    p = default_params()
    h = _single_tap_channel(p, delay=0, gain=1.0)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = synthesize_measurement(X, h, 0.0, rng)
    res = dantzig_recover(y, X, 0.0)
    assert res.solver_status == "optimal"
    assert np.array_equal(res.recovered_support, [0])
    assert np.array_equal(res.raw_support, [0])
    assert abs(res.estimate[0] - 1.0) < 1e-6
    assert np.max(np.abs(np.delete(res.estimate, 0))) < 1e-6


def test_failed_solve_is_not_an_estimate(rng, monkeypatch):
    # a solve cut off by its pivot cap hands back NaN, which nmse and
    # threshold_support refuse, rather than an all-zero estimate
    p = default_params()
    h = sample_channel(p, rng)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = synthesize_measurement(X, h, 0.1, rng)
    monkeypatch.setattr(simplex, "_MAX_ITER_FACTOR", 0)
    res = dantzig_recover(y, X, 0.1)
    assert res.solver_status == "iteration-limit"
    assert res.recovered_support.size == 0
    assert res.raw_support.size == 0
    for estimate in (res.estimate, res.raw_estimate):
        assert estimate.shape == (p.tap_count,) and np.isnan(estimate).all()
        with pytest.raises(ValueError):
            threshold_support(estimate)
    with pytest.raises(ValueError):
        nmse(h.taps, res.estimate)
    with pytest.raises(ValueError):
        nmse(h.taps, res.raw_estimate)


def test_dantzig_zero_measurement(rng):
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = np.zeros(20, dtype=complex)
    for noise_variance in (0.0, 0.01):
        res = dantzig_recover(y, X, noise_variance)
        assert np.all(res.raw_estimate == 0)
        assert np.all(res.estimate == 0)
        assert res.recovered_support.size == 0
        assert res.raw_support.size == 0
    # any constraint level admits h = 0, so the l1 optimum is zero
    for eps in (1e-9, 0.1, 10.0):
        lp = solve_lp(*_embed_lp(y, X, eps))
        assert lp.status == "optimal" and np.all(lp.x == 0)


def test_dantzig_epsilon_constraint_satisfied(rng):
    # raw program output must respect the per-component residual bound
    p = default_params()
    for _ in range(5):
        h = sample_channel(p, rng)
        X = build_sensing_matrix(select_pilot_tones(p, rng), p)
        y = synthesize_measurement(X, h, 0.01, rng)
        res = dantzig_recover(y, X, 0.01)
        assert res.solver_status == "optimal"
        corr = X.rows.conj().T @ (y - X.rows @ res.raw_estimate)
        bound = dantzig_epsilon(0.01, X) / np.sqrt(2.0)
        assert np.max(np.abs(corr.real)) <= bound + 1e-7
        assert np.max(np.abs(corr.imag)) <= bound + 1e-7


def test_dantzig_truth_feasible_objective_bound(rng):
    # when the constraint level admits the true channel, the l1 optimum
    # cannot exceed the truth's split-variable norm
    p = default_params()
    for _ in range(10):
        h = sample_channel(p, rng)
        X = build_sensing_matrix(select_pilot_tones(p, rng), p)
        noise_var = 0.01
        y = synthesize_measurement(X, h, noise_var, rng)
        z_corr = X.rows.conj().T @ (y - X.rows @ h.taps)
        eps = np.sqrt(2.0) * float(np.max(np.abs(z_corr)))
        res = solve_lp(*_embed_lp(y, X, eps))
        assert res.status == "optimal"
        raw = res.x[: p.tap_count] + 1j * res.x[p.tap_count :]
        truth_l1 = float(np.abs(h.taps.real).sum() + np.abs(h.taps.imag).sum())
        assert np.abs(raw.real).sum() + np.abs(raw.imag).sum() <= truth_l1 + 1e-7


def test_debias_refit_never_raises_residual(rng):
    # on the support it selects from the raw solution, the LS refit is the
    # residual minimizer, so it cannot do worse than the truncated raw taps
    p = default_params()
    X = build_sensing_matrix(DESIGNED_TONES_100, p)
    A = X.rows
    improved = 0
    for _ in range(15):
        h = sample_channel(p, rng)
        y = synthesize_measurement(X, h, 0.01, rng)
        deb = dantzig_recover(y, X, 0.01)
        raw = deb.raw_estimate
        support = threshold_support(raw, MAGNITUDE_FLOOR)
        assert np.array_equal(deb.raw_support, support)
        truncated = np.zeros_like(raw)
        truncated[support] = raw[support]
        refit = np.zeros_like(raw)
        if support.size:
            coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
            refit[support] = coef
        r_trunc = np.sum(np.abs(y - A @ truncated) ** 2)
        r_refit = np.sum(np.abs(y - A @ refit) ** 2)
        assert r_refit <= r_trunc + 1e-9
        improved += int(nmse(h.taps, deb.estimate) < nmse(h.taps, raw))
    assert improved >= 12  # debias helps on the vast majority of trials


def test_lp_iterations_reported(rng):
    p = default_params(tap_count=25)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    h = sample_channel(p, rng)
    y = synthesize_measurement(X, h, 0.01, rng)
    lp = _embed_lp(y, X, dantzig_epsilon(0.01, X))
    res = dantzig_recover(y, X, 0.01)
    assert res.lp_iterations == solve_lp(*lp).iterations > 0
    assert omp_recover(y, X, p.sparsity).lp_iterations is None


def test_debias_passes_reported(rng):
    p = default_params()
    h = sample_channel(p, rng)
    X = build_sensing_matrix(DESIGNED_TONES_100, p)
    y = synthesize_measurement(X, h, 0.01, rng)
    assert dantzig_recover(y, X, 0.01).debias_passes >= 1
    assert dantzig_recover(y, X, 0.0).debias_passes >= 1
    assert omp_recover(y, X, p.sparsity).debias_passes is None
    assert omp_recover(y, X, p.sparsity).raw_support is None
    comb = build_sensing_matrix(comb_tone_set(p), p)
    yf = synthesize_measurement(comb, h, 0.01, rng)
    assert fde_ls_recover(yf, comb).debias_passes is None


def test_noiseless_debias_reports_the_refit_support():
    # recover-bench's noiseless stream [0, 2, 0, 8]: the raw solution keeps
    # 26 taps above 1% of its peak, and the exact refit on the largest 12
    # leaves all but the 4 true taps at rounding level
    p = default_params()
    X = build_sensing_matrix(DESIGNED_TONES_100, p)
    rng = np.random.default_rng([0, 2, 0, 8])
    h = sample_channel(p, rng)
    y = synthesize_measurement(X, h, 0.0, rng)
    res = dantzig_recover(y, X, 0.0)
    assert np.array_equal(res.raw_support, threshold_support(res.raw_estimate))
    assert res.raw_support.size > CANDIDATE_CAP
    assert res.recovered_support.tolist() == h.support.tolist()
    assert nmse(h.taps, res.estimate) < -150.0


def _debias_instances(tap_count, tones, seed_tag, snr_dbs, trials):
    # criterion 4's frozen channel draws, with tones and SNR varied
    params = default_params(tap_count=tap_count)
    for snr_db in snr_dbs:
        noise_var = 1.0 / 10.0 ** (snr_db / 10.0)
        for t in range(trials):
            rng = np.random.default_rng([2024, seed_tag, t])
            h = sample_channel(params, rng)
            tone_set = tones if tones is not None else select_pilot_tones(params, rng)
            X = build_sensing_matrix(tone_set, params)
            y = synthesize_measurement(X, h, noise_var, rng)
            yield y, X, params, noise_var


@pytest.mark.parametrize(
    "tap_count, tones, seed_tag, snr_dbs, trials",
    [
        (100, DESIGNED_TONES_100, 42, (20.0,), 200),
        (25, None, 41, (0.0, 10.0, 20.0), 100),
        (100, DESIGNED_TONES_100, 42, (0.0, 10.0), 75),
    ],
    ids=["criterion4-20dB", "25-random", "100-designed-low-snr"],
)
def test_stepwise_select_matches_lstsq_reference(tap_count, tones, seed_tag, snr_dbs, trials):
    # the QR-scored selection must pick the support the per-candidate lstsq
    # reference picks, and its estimate, read off the final factor, must be
    # the reference's lstsq refit on that support to rounding
    pruned = added = 0
    for y, X, p, noise_var in _debias_instances(tap_count, tones, seed_tag, snr_dbs, trials):
        res = dantzig_recover(y, X, noise_var)
        candidates = threshold_support(res.raw_estimate, MAGNITUDE_FLOOR)
        assert np.array_equal(res.raw_support, candidates)
        if candidates.size > CANDIDATE_CAP:
            mags = np.abs(res.raw_estimate[candidates])
            candidates = np.sort(candidates[np.argsort(mags)[-CANDIDATE_CAP:]])
        want = stepwise_select_lstsq(
            y,
            X.rows,
            list(candidates),
            CANDIDATE_CAP,
            SELECTION_TAU * noise_var,
        )
        assert res.recovered_support.tolist() == want
        expected = np.zeros(p.tap_count, dtype=complex)
        if want:
            expected[want] = ls_refit(y, X.rows, want)[1]
        assert np.linalg.norm(res.estimate - expected) <= 1e-12 * np.linalg.norm(expected)
        pruned += bool(set(candidates.tolist()) - set(want))
        added += bool(set(want) - set(candidates.tolist()))
    assert pruned > 0
    assert added > 0


def test_stepwise_select_prunes_dependent_columns(rng):
    # a column in the span of the others leaves at zero rise, and a support
    # wider than the measurement count is cut back to at most that count
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    h = sample_channel(p, rng)
    rows = X.rows.copy()
    rows[:, [1, 2]] = rows[:, [0, 0]]
    y = synthesize_measurement(SensingMatrix(rows), h, 0.01, rng)
    support, _, _ = _stepwise_select(y, rows, [0, 1, 2], 10.0 * 0.01)
    assert len(set(support) & {0, 1, 2}) <= 1
    y = synthesize_measurement(X, h, 1.0, rng)
    support, _, _ = _stepwise_select(y, X.rows, list(range(30)), 0.01 * 1.0)
    assert len(support) <= X.rows.shape[0]


def _assert_lstsq_fit(y, Xs, support, coef):
    # the returned coefficients are an independent lstsq refit on the support
    expected = ls_refit(y, Xs, support)[1] if support.size else np.zeros(0)
    assert coef.shape == expected.shape
    assert np.linalg.norm(coef - expected) <= 1e-12 * np.linalg.norm(expected)


def test_stepwise_select_empty_support_has_empty_fit(rng):
    # every candidate is pruned and none added: no coefficients, and
    # dantzig_recover scores an all-zero estimate
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = synthesize_measurement(X, sample_channel(p, rng), 0.01, rng)
    support, coef, _ = _stepwise_select(y, X.rows, [0, 1, 2], 1e6)
    assert support.size == 0
    _assert_lstsq_fit(y, X.rows, support, coef)
    res = dantzig_recover(y, X, 1e4)
    assert res.recovered_support.size == 0
    assert np.array_equal(res.estimate, np.zeros(p.tap_count))


def test_stepwise_select_pass_limit_after_add_refits(rng):
    # a column whose rise sits one ulp below the threshold while its add
    # score clears it (the two are rounded differently) is added and pruned
    # in turn, so the pass limit falls right after an add, past the last
    # factor; the fit must still be that of the returned support
    for _ in range(100):
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        Q, R = np.linalg.qr(a[:, None])
        R_inv = np.linalg.inv(R)
        rise = (np.abs(R_inv @ (Q.conj().T @ y)) ** 2 / np.sum(np.abs(R_inv) ** 2, axis=1))[0]
        threshold = np.nextafter(rise, np.inf)
        if abs(np.vdot(a, y)) ** 2 > threshold * np.vdot(a, a).real:
            break
    else:
        pytest.fail("no draw scores the add above the prune")
    support, coef, passes = _stepwise_select(y, a[:, None], [], threshold)
    assert passes == 4 * CANDIDATE_CAP
    assert support.tolist() == [0]
    _assert_lstsq_fit(y, a[:, None], support, coef)


def test_stepwise_select_zero_threshold_prunes_dependent_column(rng):
    # threshold 0 (dantzig_recover's noiseless threshold when y = 0): a
    # dependent column scores a zero rise, which is not below 0, yet it
    # leaves, so the kept columns have a factor to read the fit from
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    rows = X.rows.copy()
    rows[:, 1] = rows[:, 0]
    y = np.zeros(rows.shape[0], dtype=complex)
    support, coef, _ = _stepwise_select(y, rows, [0, 1, 2], 0.0)
    assert support.tolist() == [0, 2]
    _assert_lstsq_fit(y, rows, support, coef)


def test_stepwise_select_never_adds_a_column_in_the_support_span():
    # a duplicate of a kept column has a rounding-level u = (I - QQ^H) a:
    # once pruned it is not added back, so the support settles at once
    # rather than cycling to the pass limit with a non-minimum-norm fit
    p = default_params()
    rows = build_sensing_matrix(select_pilot_tones(p, np.random.default_rng(3)), p).rows.copy()
    rows[:, 1] = rows[:, 0]
    y = rows[:, [0, 2]] @ np.array([1.0, 2.0])
    support, coef, passes = _stepwise_select(y, rows, [0, 1, 2], 0.0)
    assert support.tolist() == [0, 2]
    assert passes == 2
    _assert_lstsq_fit(y, rows, support, coef)
    assert coef == pytest.approx([1.0, 2.0], rel=1e-12)


def test_omp_noiseless_exact(rng):
    p = default_params()
    for _ in range(10):
        h = sample_channel(p, rng)
        X = build_sensing_matrix(select_pilot_tones(p, rng), p)
        y = synthesize_measurement(X, h, 0.0, rng)
        res = omp_recover(y, X, p.sparsity)
        assert np.array_equal(res.recovered_support, h.support)
        rel = np.linalg.norm(res.estimate - h.taps) / np.linalg.norm(h.taps)
        assert rel < 1e-8


@pytest.mark.parametrize(
    "tap_count, tones, seed_tag, snr_dbs, trials",
    [
        (25, DESIGNED_TONES_25, 41, (np.inf,), 500),
        (100, DESIGNED_TONES_100, 42, (0.0, 10.0, 20.0, np.inf), 200),
        (25, None, 41, (0.0, 10.0, 20.0, np.inf), 100),
    ],
    ids=["criterion4-noiseless", "100-designed", "25-random"],
)
def test_omp_matches_lstsq_reference(tap_count, tones, seed_tag, snr_dbs, trials):
    # criterion 4's 500 frozen noiseless draws, and the stepwise debias's
    # instances at 0, 10 and 20 dB and noiseless: the same columns as the
    # per-iteration lstsq reference, and its refit on them to rounding
    for y, X, p, _ in _debias_instances(tap_count, tones, seed_tag, snr_dbs, trials):
        selected, coef = omp_lstsq(y, X.rows, p.sparsity)
        res = omp_recover(y, X, p.sparsity)
        assert res.recovered_support.tolist() == sorted(selected)
        expected = np.zeros(p.tap_count, dtype=complex)
        expected[selected] = coef
        assert np.linalg.norm(res.estimate - expected) <= 1e-12 * np.linalg.norm(expected)


def test_omp_raises_on_a_numerically_dependent_column(rng):
    # with two equal columns, the second iteration must choose the copy of
    # the first, which has no part outside the chosen span
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    rows = X.rows[:, [0, 0]]
    twin = SensingMatrix(rows)
    with pytest.raises(np.linalg.LinAlgError, match="dependent"):
        omp_recover(rows[:, 0], twin, 2)
    with pytest.raises(np.linalg.LinAlgError, match="dependent"):
        omp_lstsq(rows[:, 0], rows, 2)
    assert omp_recover(rows[:, 0], twin, 1).recovered_support.tolist() == [0]


def test_omp_zero_sparsity(rng):
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = np.ones(20, dtype=complex)
    res = omp_recover(y, X, 0)
    assert np.all(res.estimate == 0)
    assert res.recovered_support.size == 0


def test_omp_deterministic(rng):
    p = default_params()
    h = sample_channel(p, rng)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    y = synthesize_measurement(X, h, 0.05, rng)
    a = omp_recover(y, X, 4)
    b = omp_recover(y, X, 4)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.recovered_support, b.recovered_support)


def test_omp_sparsity_cap(rng):
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    for sparsity in (21, -1, -3, 2.5):  # 2.5 raised TypeError from range()
        with pytest.raises(ValueError, match="sparsity"):
            omp_recover(np.zeros(20, dtype=complex), X, sparsity)


def test_omp_sparsity_beyond_the_taps_is_a_value_error(rng):
    # D < sparsity <= M: more columns asked for than there are
    p = default_params(tap_count=25, pilot_count=30)
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    with pytest.raises(ValueError, match=r"0 <= sparsity <= min\(M, D\) = 25"):
        omp_recover(np.ones(30, dtype=complex), X, 26)
    assert omp_recover(np.ones(30, dtype=complex), X, 25).recovered_support.size == 25


def _stack(tap_count, tones, noise_variance, n, seed):
    """n trials' (rows, Y, matrices): one matrix for all (designed) or a stack (random)."""
    p = default_params(tap_count=tap_count)
    rng = np.random.default_rng(seed)
    taps = np.array([sample_channel(p, rng).taps for _ in range(n)])
    if tones is None:
        rows = _partial_dft(np.array([select_pilot_tones(p, rng) for _ in range(n)]), p)
        matrices = [SensingMatrix(r) for r in rows]
    else:
        X = build_sensing_matrix(tones, p)
        rows, matrices = X.rows, [X] * n
    Y = np.array([synthesize_measurement(matrix, SparseChannel(h), noise_variance, rng)
                  for matrix, h in zip(matrices, taps)])
    return rows, Y, matrices


@pytest.mark.parametrize("noise_variance", [1.0, 0.1, 0.0])
@pytest.mark.parametrize("tap_count, tones", [(100, DESIGNED_TONES_100), (25, None)])
def test_stacked_omp_equals_single_calls(tap_count, tones, noise_variance):
    rows, Y, matrices = _stack(tap_count, tones, noise_variance, 13, tap_count)
    for sparsity in (0, 1, 4):
        estimates, selected = _omp(Y, rows, sparsity)
        assert selected.shape == (13, sparsity)
        for y, X, estimate, chosen in zip(Y, matrices, estimates, selected):
            res = omp_recover(y, X, sparsity)
            assert np.array_equal(res.estimate, estimate)
            assert np.array_equal(res.recovered_support, np.sort(chosen))


def test_stacked_omp_raises_when_one_trial_picks_a_dependent_column(rng):
    # the middle trial's twin columns make its second pick dependent; the
    # others alone recover, but the stack as a whole refuses
    p = default_params()
    rows = _partial_dft(np.array([select_pilot_tones(p, rng) for _ in range(3)]), p)[:, :, :2]
    rows[1, :, 1] = rows[1, :, 0]
    Y = rows[:, :, 0] + 0.5 * rows[:, :, 1]
    with pytest.raises(np.linalg.LinAlgError, match="dependent"):
        _omp(Y, rows, 2)
    for i in (0, 2):
        assert omp_recover(Y[i], SensingMatrix(rows[i]), 2).recovered_support.tolist() == [0, 1]
    with pytest.raises(np.linalg.LinAlgError, match="dependent"):
        omp_recover(Y[1], SensingMatrix(rows[1]), 2)


@pytest.mark.parametrize("tap_count", [25, 100])
def test_stacked_dense_ls_equals_single_calls(tap_count):
    p = default_params(tap_count=tap_count)
    comb = build_sensing_matrix(comb_tone_set(p), p)
    rng = np.random.default_rng(tap_count)
    Y = rng.standard_normal((13, tap_count)) + 1j * rng.standard_normal((13, tap_count))
    Y[4] = 0.0
    estimates = _dense_ls(Y, comb)
    masks = _above(np.abs(estimates), 0.0)
    for y, estimate, mask in zip(Y, estimates, masks):
        res = fde_ls_recover(y, comb)
        assert np.array_equal(res.estimate, estimate)
        assert np.array_equal(res.recovered_support, np.flatnonzero(mask))
    assert not masks[4].any()


def _nmse_per_trial(true_h, estimate):
    # the per-trial arithmetic of a single score: Python floats and a scalar log10
    signal = float(np.sum(np.abs(true_h) ** 2))
    ratio = float(np.sum(np.abs(estimate - true_h) ** 2)) / signal
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return float(10.0 * np.log10(ratio))


def test_stacked_nmse_equals_single_calls():
    rng = np.random.default_rng(8)
    truth = rng.standard_normal((60, 25)) + 1j * rng.standard_normal((60, 25))
    truth[:, rng.random(25) < 0.8] = 0.0
    truth[:, 0] += 1.0  # every row has some energy
    scales = 10.0 ** rng.uniform(-12, 2, size=(60, 1))
    error = rng.standard_normal((60, 25)) + 1j * rng.standard_normal((60, 25))
    estimate = truth + scales * error
    estimate[0], estimate[1] = truth[0], 0.0  # the floor, and 0 dB
    stacked = _nmse_db(truth, estimate)
    assert stacked.shape == (60,)
    assert stacked[0] == NMSE_FLOOR_DB
    for t, e, value in zip(truth, estimate, stacked):
        assert nmse(t, e) == value == _nmse_per_trial(t, e)


@pytest.mark.parametrize(
    "true_h, estimate, match",
    [
        (np.ones((3, 4)), np.full((3, 4), np.nan), "finite"),
        (np.where(np.eye(3, 4) > 0, np.inf, 1.0), np.ones((3, 4)), "finite"),
        (np.ones((3, 4)), np.ones((3, 5)), "shape"),
        (np.ones((3, 4)), np.ones((2, 4)), "shape"),
        (np.ones((3, 4)), np.ones(4), "shape"),
        (np.vstack([np.ones(4), np.zeros(4), np.ones(4)]), np.ones((3, 4)), "zero norm"),
    ],
)
def test_stacked_nmse_refusals(true_h, estimate, match):
    with pytest.raises(ValueError, match=match):
        _nmse_db(true_h, estimate)


def test_fde_noiseless_exact_dense(rng):
    # square invertible system recovers even a fully dense channel
    p = default_params(tap_count=100, sparsity=100, pilot_count=100)
    h = sample_channel(p, rng)
    X = build_sensing_matrix(comb_tone_set(p), p)
    y = synthesize_measurement(X, h, 0.0, rng)
    res = fde_ls_recover(y, X)
    rel = np.linalg.norm(res.estimate - h.taps) / np.linalg.norm(h.taps)
    assert rel < 1e-10


@pytest.mark.parametrize(
    "wt, taps",
    [(1000, taps) for taps in (1, 8, 25, 100, 112, 300, 400, 900, 999)]
    + [(97, taps) for taps in range(1, 98)],
)
def test_comb_spans_the_band_with_full_rank(wt, taps):
    # tone i is i * wt // taps: distinct, spread over the whole band, and the
    # even stride wt // taps itself wherever taps divides wt; at that integer
    # stride 112, 300, 400 and 900 taps of 1000 gave a rank-deficient matrix
    p = OfdmParams(wt, taps, 1, 1)
    tones = comb_tone_set(p)
    assert np.all(np.diff(tones) >= wt // taps) and tones.size == taps
    assert tones[0] == 0 and tones[-1] == wt - (wt + taps - 1) // taps  # one stride from the end
    if wt % taps == 0:
        assert np.array_equal(tones, np.arange(taps) * (wt // taps))
    X = build_sensing_matrix(tones, p)
    h = np.exp(1j * np.arange(taps))  # a dense channel
    # full rank by the matrix_rank rule, or fde_ls_recover raises LinAlgError
    res = fde_ls_recover(X.rows @ h, X)
    assert np.linalg.norm(res.estimate - h) <= 1e-9 * np.linalg.norm(h)


def test_fde_zero_measurement(rng):
    p = default_params()
    X = build_sensing_matrix(comb_tone_set(p), p)
    res = fde_ls_recover(np.zeros(100, dtype=complex), X)
    assert np.all(res.estimate == 0)


def test_fde_requires_enough_tones(rng):
    # 20 or 60 tones cannot determine 100 taps: the count comes from the matrix
    for m in (20, 60):
        tones = select_pilot_tones(default_params(pilot_count=m), rng)
        X = build_sensing_matrix(tones, default_params())
        assert X.rows.shape == (m, 100)
        with pytest.raises(ValueError, match="at least 100 tones"):
            fde_ls_recover(np.ones(m, dtype=complex), X)


def test_fde_matches_lstsq():
    # the cached pseudo-inverse against a fresh least-squares solve, on the
    # DFT comb and on random tone sets with at least tap_count tones
    rng = np.random.default_rng(7)
    p = default_params()
    tone_sets = [comb_tone_set(p)]
    for m in (100, 130, 400):
        tone_sets.append(select_pilot_tones(default_params(pilot_count=m), rng))
    for tones in tone_sets:
        X = build_sensing_matrix(tones, p)
        A = X.rows
        for _ in range(3):
            y = A @ (rng.standard_normal(100) + 1j * rng.standard_normal(100))
            y += 0.3 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
            want = np.linalg.lstsq(A, y, rcond=None)[0]
            got = fde_ls_recover(y, X).estimate
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fde_rank_deficient_raises_on_every_call():
    p = default_params()
    rows = build_sensing_matrix(comb_tone_set(p), p).rows.copy()
    rows[:, 7] = rows[:, 3]
    X = SensingMatrix(rows=rows)
    for _ in range(3):
        with pytest.raises(np.linalg.LinAlgError):
            fde_ls_recover(np.ones(100, dtype=complex), X)


def test_embed_lp_cached_block_matches_fresh_matrix(rng):
    # the factor a matrix keeps is bitwise the one a fresh matrix of the
    # same tones builds, and V^T V is the real form of X^H X to rounding
    p = default_params()
    eps = 0.4
    X = build_sensing_matrix(DESIGNED_TONES_100, p)
    for _ in range(3):
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        cached = _embed_lp(y, X, eps)
        fresh = _embed_lp(y, build_sensing_matrix(DESIGNED_TONES_100, p), eps)
        for a, b in zip(cached, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    v, V, t = cached
    assert v.shape == (200,) and V.shape == (40, 200) and t == eps / np.sqrt(2.0)
    assert not V.flags.writeable
    assert X.cached("lp_factors", None) is V
    G = X.rows.conj().T @ X.rows
    R, Im = G.real, G.imag
    formula = np.block([[R, -Im], [Im, R]])
    assert np.max(np.abs(V.T @ V - formula)) <= 1e-12
    # another tone set gets its own factor
    other = build_sensing_matrix(select_pilot_tones(p, rng), p)
    V_other = _embed_lp(y, other, eps)[1]
    assert V_other is not V
    assert not np.array_equal(V_other, V)
    assert _embed_lp(y, X, eps)[1] is V


def test_fde_rank_deficient_raises():
    X = SensingMatrix(rows=np.ones((100, 100), dtype=complex))
    with pytest.raises(np.linalg.LinAlgError):
        fde_ls_recover(np.ones(100, dtype=complex), X)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_estimators_reject_non_finite_measurement(rng, bad):
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    comb = build_sensing_matrix(comb_tone_set(p), p)
    y, yf = np.ones(20, dtype=complex), np.ones(100, dtype=complex)
    y[3] = yf[3] = bad
    with pytest.raises(ValueError, match="measurement"):
        dantzig_recover(y, X, 0.01)
    with pytest.raises(ValueError, match="measurement"):
        omp_recover(y, X, p.sparsity)
    with pytest.raises(ValueError, match="measurement"):
        fde_ls_recover(yf, comb)


def test_estimators_reject_two_dimensional_measurement(rng):
    # each row of y would be fit as its own measurement, or fail deep inside
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    comb = build_sensing_matrix(comb_tone_set(p), p)
    with pytest.raises(ValueError, match="measurement has shape"):
        dantzig_recover(np.ones((20, 2), dtype=complex), X, 0.01)
    with pytest.raises(ValueError, match="measurement has shape"):
        omp_recover(np.ones((20, 2), dtype=complex), X, p.sparsity)
    with pytest.raises(ValueError, match="measurement has shape"):
        fde_ls_recover(np.ones((100, 2), dtype=complex), comb)
    with pytest.raises(ValueError, match="measurement has shape"):
        fde_ls_recover(np.ones((1, 100), dtype=complex), comb)


def test_estimators_take_a_list_measurement(rng):
    # a list is read as the array it holds, noiseless Dantzig and OMP too
    p = default_params()
    X = build_sensing_matrix(select_pilot_tones(p, rng), p)
    comb = build_sensing_matrix(comb_tone_set(p), p)
    h = sample_channel(p, rng)
    y, yf = synthesize_measurement(X, h, 0.0, rng), synthesize_measurement(comb, h, 0.0, rng)
    for call in (
        lambda y, yf: dantzig_recover(y, X, 0.0),
        lambda y, yf: dantzig_recover(y, X, 0.01),
        lambda y, yf: omp_recover(y, X, p.sparsity),
        lambda y, yf: fde_ls_recover(yf, comb),
    ):
        want, got = call(y, yf), call(list(y), list(yf))
        assert np.array_equal(got.estimate, want.estimate)
        assert np.array_equal(got.recovered_support, want.recovered_support)


def test_fde_comparable_at_20db(rng):
    # 20 dB per tone: unit-energy pilots, noise variance 0.01
    p = default_params()
    comb = build_sensing_matrix(comb_tone_set(p), p)
    cs, fde = [], []
    for _ in range(100):
        h = sample_channel(p, rng)
        X = build_sensing_matrix(DESIGNED_TONES_100, p)
        y = synthesize_measurement(X, h, 0.01, rng)
        cs.append(nmse(h.taps, dantzig_recover(y, X, 0.01).estimate))
        yf = synthesize_measurement(comb, h, 0.01, rng)
        fde.append(nmse(h.taps, fde_ls_recover(yf, comb).estimate))
    assert np.mean(cs) <= np.mean(fde) + 3.0


def test_nmse_values():
    truth = np.array([1.0 + 1j, -2.0, 0.5j])
    assert nmse(truth, truth.copy()) == -200.0
    assert nmse(truth, np.zeros(3, dtype=complex)) == pytest.approx(0.0, abs=1e-12)
    assert nmse(truth, 2 * truth) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        nmse(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_nmse_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.array([bad, 0, 0]))
    with pytest.raises(ValueError):
        nmse(np.array([bad, 1, 1]), np.zeros(3))


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_nmse_integer_arrays_score_without_wrapping(dtype):
    # 20^2 and 17^2 overflow both dtypes
    truth, estimate = np.array([20, 1]), np.array([3, 0])
    want = nmse(truth.astype(float), estimate.astype(float))
    assert nmse(truth.astype(dtype), estimate.astype(dtype)) == want


@pytest.mark.parametrize("estimate", [np.ones(1), np.ones((2, 3)), np.ones(4)])
def test_nmse_rejects_shape_mismatch(estimate):
    # broadcasting would score these against a 3-tap channel
    with pytest.raises(ValueError, match="shape"):
        nmse(np.ones(3), estimate)


def test_threshold_support_rule():
    est = np.array([1.0, 0.02, 0.005, 0.0])
    assert np.array_equal(threshold_support(est), [0, 1])  # 1% of max
    assert np.array_equal(threshold_support(est, floor=0.05), [0])
    assert threshold_support(np.zeros(4)).size == 0


@pytest.mark.parametrize(
    "estimate, floor",
    [
        ([1.0, 0.5], np.nan),
        ([1.0, 0.5], np.inf),
        ([1.0, 0.5], -1.0),
        ([np.nan, 0.5], 0.0),
        ([np.inf, 0.5], 0.0),
        ([1.0, complex(np.nan, 0.0)], 0.01),
        ([[1.0, 0.5], [0.5, 1.0]], 0.0),  # flat indices into a matrix are no support
        (1.0, 0.0),
    ],
)
def test_threshold_support_rejects_bad_input(estimate, floor):
    with pytest.raises(ValueError):
        threshold_support(np.array(estimate), floor)
