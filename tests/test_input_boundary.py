"""Bad scalars and arrays at the public entry points raise ``ValueError``.

Two tables.  `_ROWS` holds one row per (entry point, bad value): a str,
complex, bool or non-finite number where a real scalar belongs, a 2-D list
or a scalar where a 1-D one belongs, bool, str or complex arrays where
numbers belong, and counts below their range.  `_WALK` holds one row per
callable that ``cspilot`` exports, naming the kind of each numeric argument;
every bad value of that kind is substituted in turn into an otherwise good
call.  Either way a ``TypeError``, ``IndexError``, ``LinAlgError`` or a
returned result fails the row.  Object arguments (params, model, config,
matrix, channel, book, rng) are out of scope: they are taken as given.
"""

import math

import numpy as np
import pytest

import cspilot

from cspilot.channel import (
    OfdmParams,
    SensingMatrix,
    SparseChannel,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from cspilot.detection import DetectionConfig, min_threshold_for_network
from cspilot.netsim import NetworkModel
from cspilot.pilots import PilotCodebook, build_codebook, capacity, decode_energy_vector, superpose
from cspilot.recovery import (
    comb_tone_set,
    dantzig_epsilon,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
    threshold_support,
)
from cspilot.simplex import solve_lp

_P = default_params()
_TONES = select_pilot_tones(_P, np.random.default_rng(0))
_X = build_sensing_matrix(_TONES, _P)
_H = sample_channel(_P, np.random.default_rng(1))
_COMB = build_sensing_matrix(comb_tone_set(_P), _P)
_STR_Y = np.array(["a"] * 20)
_BAD_V = {"nan": np.diag([np.nan, 1.0]), "inf": np.diag([1.0, np.inf]), "bool": np.eye(2, dtype=bool)}

_ROWS = {
    "network-powers-2d": lambda: min_threshold_for_network([[1.0, 2.0]], 8),
    "network-cap-str": lambda: min_threshold_for_network([1.0], 8, "0.1"),
    "network-cap-bool": lambda: min_threshold_for_network([1.0], 8, True),
    "coverage-str": lambda: NetworkModel(4, "0.5", 2),
    "coverage-complex": lambda: NetworkModel(4, 0.5j, 2),
    "coverage-bool": lambda: NetworkModel(4, True, 2),
    "nmse-bool-arrays": lambda: nmse(np.array([True, False]), np.array([False, True])),
    "nmse-str-arrays": lambda: nmse(np.array(["1", "0"]), np.array(["0", "1"])),
    "pathloss-str": lambda: DetectionConfig(4, "1.0"),
    "pathloss-bool": lambda: DetectionConfig(4, True),
    "threshold-str": lambda: DetectionConfig(4, 1.0, "1.2"),
    "threshold-complex": lambda: DetectionConfig(4, 1.0, 1.2 + 0j),
    "epsilon-str": lambda: dantzig_epsilon("0.1", _X),
    "epsilon-bool": lambda: dantzig_epsilon(True, _X),
    "epsilon-huge-int": lambda: dantzig_epsilon(10**400, _X),
    "noise-str": lambda: synthesize_measurement(_X, _H, "0.1", np.random.default_rng(2)),
    "noise-complex": lambda: synthesize_measurement(_X, _H, 0.1j, np.random.default_rng(2)),
    "floor-complex": lambda: threshold_support(np.ones(3), 1j),
    "floor-bool": lambda: threshold_support(np.ones(3), False),
    "network-powers-str": lambda: min_threshold_for_network("12", 8),
    "network-powers-bool": lambda: min_threshold_for_network([True, True], 8),
    "network-powers-scalar": lambda: min_threshold_for_network(2.0, 8),
    "network-powers-complex": lambda: min_threshold_for_network([1 + 0j], 8),
    "dantzig-str-measurement": lambda: dantzig_recover(_STR_Y, _X, 0.1),
    "dantzig-bool-measurement": lambda: dantzig_recover(np.ones(20, dtype=bool), _X, 0.1),
    "omp-str-measurement": lambda: omp_recover(_STR_Y, _X, 4),
    "fde-bool-measurement": lambda: fde_ls_recover(np.ones(100, dtype=bool), _COMB),
    "support-str-estimate": lambda: threshold_support(np.array(["a"]), 0.0),
    "support-bool-estimate": lambda: threshold_support(np.array([True, False])),
    "taps-str": lambda: SparseChannel(np.array(["1"])),
    "sensing-rows-str": lambda: SensingMatrix(np.array([["1"]])),
    "capacity-negative-ones": lambda: capacity(-1, 2),
    "capacity-zero-zeros": lambda: capacity(3, 0),
    "lp-V-1d": lambda: solve_lp(np.ones(2), np.ones(2), 0.5),
    "lp-V-3d": lambda: solve_lp(np.ones(2), np.ones((1, 1, 2)), 0.5),
    "lp-v-wrong-length": lambda: solve_lp(np.ones(3), np.eye(2), 0.5),
    "lp-v-nan": lambda: solve_lp([1.0, np.nan], np.eye(2), 0.5),
    **{f"lp-V-{k}": (lambda V=V: solve_lp(np.ones(2), V, 0.5)) for k, V in _BAD_V.items()},
    "lp-V-complex": lambda: solve_lp(np.ones(2), np.eye(2, dtype=complex), 0.5),
    "lp-t-negative": lambda: solve_lp(np.ones(2), np.eye(2), -0.5),
    "lp-t-nan": lambda: solve_lp(np.ones(2), np.eye(2), np.nan),
    "lp-t-str": lambda: solve_lp(np.ones(2), np.eye(2), "0.5"),
    "sensing-tones-str": lambda: build_sensing_matrix(np.array(["a", "b"]), _P),
    "sensing-tones-nan": lambda: build_sensing_matrix([np.nan, 1.0], _P),
    "sensing-tones-scalar": lambda: build_sensing_matrix(5, _P),
    "sensing-tones-np-scalar": lambda: build_sensing_matrix(np.int64(5), _P),
    "superpose-scalar": lambda: superpose(0, build_codebook(3, 2, 1)),
    "nmse-scalars": lambda: nmse(1.0, 1.0),
    "nmse-2d": lambda: nmse(np.ones((2, 2)), np.ones((2, 2))),
}


# bounds that depend on another argument
_CROSS = {
    "tone-at-wt": lambda: build_sensing_matrix([0, _P.bandwidth_time_product], _P),
    "ue-index-at-k": lambda: superpose([3], build_codebook(3, 2, 1)),
    "threshold-at-1-plus-gp": lambda: DetectionConfig(4, 1.0, 2.0),
    "omp-sparsity-above-m": lambda: omp_recover(_X.rows @ _H.taps, _X, _P.pilot_count + 1),
    "fde-ls-m-below-d": lambda: fde_ls_recover(_X.rows @ _H.taps, _X),
    "pilot-count-above-wt": lambda: OfdmParams(10, 4, 2, 11),
    "decode-length-mismatch": lambda: decode_energy_vector(np.ones(2), build_codebook(3, 2, 1)),
    "nmse-shape-mismatch": lambda: nmse(np.ones(3), np.ones(4)),
}


@pytest.mark.parametrize("call", [*_ROWS.values(), *_CROSS.values()], ids=[*_ROWS, *_CROSS])
def test_bad_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_real_scalars_of_every_kind_pass():
    # numpy reals and Python ints are real numbers too
    assert DetectionConfig(4, np.float32(3.0), np.int64(2)).threshold == 2
    assert dantzig_epsilon(np.float64(0.0), _X) == dantzig_epsilon(0, _X)
    assert NetworkModel(4, 1, 2).coverage_prob == 1
    threshold = min_threshold_for_network((2.0,), 8, np.float16(0.5))
    assert math.isclose(threshold, 3 * math.log(3) / 2)
    # narrow numpy counts add as Python ints: 100 + 100 overflows an int8
    assert capacity(np.int8(100), np.int8(100)) == math.comb(200, 100)
    assert PilotCodebook(np.int8(100), np.int8(100), 3).dimension == 200


# ---------------------------------------------------------------------------
# the walk over every export

_EXEMPT = {"RecoveryResult", "LpResult", "RhoMetrics", "DecodeOutcome", "CapacityExceededError"}

_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# bad stand-ins for an integer count and for a real scalar; a 0-D array is
# a scalar, so only a 2-D one is the wrong shape here
_BAD_COUNT = {
    **_NON_FINITE,
    "negative": -1,
    "fractional": 2.5,
    "bool": True,
    "np-bool": np.True_,
    "str": "3",
    "complex": 3 + 0j,
    "2-D": np.full((2, 2), 3),
}
_BAD_REAL = {
    **_NON_FINITE,
    "negative": -0.5,
    "bool": True,
    "np-bool": np.True_,
    "str": "0.5",
    "complex": 0.5 + 0j,
    "2-D": np.full((2, 2), 0.5),
}


def _with(good, value):
    """`good` as floats (complex when it is complex) with its first entry set to `value`."""
    bad = np.array(good, dtype=complex if np.iscomplexobj(good) else float)
    bad.flat[0] = value
    return bad


def _bad_array(good, *, real=False, integer=False, nonneg=False, axis=None):
    """Bad stand-ins for the array `good`.

    Non-finite, bool and str entries and one dimension fewer or more, always;
    complex entries when `real` or `integer`, a fractional entry when
    `integer`, a negative entry when `nonneg`, and one entry fewer along
    `axis` when the call fixes that length.
    """
    good = np.asarray(good)
    bad = {label: _with(good, value) for label, value in _NON_FINITE.items()}
    bad.update(
        {
            "bool": good.astype(bool),
            "str": good.astype(str),
            f"{good.ndim - 1}-D": good[0],
            f"{good.ndim + 1}-D": good[None],
        }
    )
    if real or integer:
        bad["complex"] = good.astype(complex)
    if integer:
        bad["fractional"] = _with(good, 0.5)
    if nonneg:
        bad["negative"] = _with(good, -1)
    if axis is not None:
        bad["wrong-length"] = np.delete(good, 0, axis=axis)
    return bad


# a 1-D list is one UE group and a 2-D array a stack of them: 3-D is one
# dimension too many, and a list's bool is no index even beside ints
_BAD_GROUPS = _bad_array([0, 2], integer=True, nonneg=True)
_BAD_GROUPS["3-D"] = _BAD_GROUPS.pop("2-D")[None]
_BAD_GROUPS["bool-in-list"] = [True, 0]

_RNG = np.random.default_rng(3)
_BOOK = build_codebook(3, 2, 1)
_CONFIG = DetectionConfig(8, 2.0)
_MODEL = NetworkModel(4, 0.5, 2)
_V = np.eye(3)[:2]
_OFDM = {"bandwidth_time_product": 1000, "tap_count": 100, "sparsity": 4, "pilot_count": 20}

# export -> (good keyword arguments, {numeric argument: its bad stand-ins})
_WALK = {
    "OfdmParams": (_OFDM, dict.fromkeys(_OFDM, _BAD_COUNT)),
    "default_params": ({}, dict.fromkeys(_OFDM, _BAD_COUNT)),
    "SensingMatrix": ({"rows": _X.rows}, {"rows": _bad_array(_X.rows)}),
    "SparseChannel": ({"taps": _H.taps}, {"taps": _bad_array(_H.taps)}),
    "build_sensing_matrix": (
        {"tone_set": _TONES, "params": _P},
        {"tone_set": _bad_array(_TONES, integer=True, nonneg=True)},
    ),
    "sample_channel": ({"params": _P, "rng": _RNG}, {}),
    "select_pilot_tones": ({"params": _P, "rng": _RNG}, {}),
    "synthesize_measurement": (
        {"X": _X, "h": _H, "noise_variance": 0.1, "rng": _RNG},
        {"noise_variance": _BAD_REAL},
    ),
    "DetectionConfig": (
        {"antenna_count": 8, "pathloss_power": 2.0, "threshold": 1.5},
        {"antenna_count": _BAD_COUNT, "pathloss_power": _BAD_REAL, "threshold": _BAD_REAL},
    ),
    "error_probability": ({"config": _CONFIG}, {}),
    "error_probability_mc": (
        {"config": _CONFIG, "trials": 10, "rng": _RNG},
        {"trials": _BAD_COUNT},
    ),
    "min_threshold_for_network": (
        {"pathloss_powers": [2.0, 10.0], "antenna_count": 8, "max_error_probability": 0.5},
        {
            "pathloss_powers": _bad_array([2.0, 10.0], real=True, nonneg=True),
            "antenna_count": _BAD_COUNT,
            "max_error_probability": _BAD_REAL,
        },
    ),
    "optimal_threshold": ({"config": _CONFIG}, {}),
    "NetworkModel": (
        {"cell_count": 4, "coverage_prob": 0.5, "group_size": 2},
        {"cell_count": _BAD_COUNT, "coverage_prob": _BAD_REAL, "group_size": _BAD_COUNT},
    ),
    "collision_probability": ({"model": _MODEL}, {}),
    "collision_probability_mc": (
        {"model": _MODEL, "trials": 10, "rng": _RNG},
        {"trials": _BAD_COUNT},
    ),
    "expected_singletons": ({"model": _MODEL}, {}),
    "optimal_group_size": ({"model": _MODEL}, {}),
    "reuse_gain": ({"model": _MODEL, "params": _P}, {}),
    "rho_metrics": ({"model": _MODEL, "params": _P}, {}),
    "PilotCodebook": (
        {"ones_per_column": 2, "zeros_per_column": 1, "user_count": 3},
        dict.fromkeys(("ones_per_column", "zeros_per_column", "user_count"), _BAD_COUNT),
    ),
    "build_codebook": (
        {"K": 3, "L_prime": 2, "l": 1},
        dict.fromkeys(("K", "L_prime", "l"), _BAD_COUNT),
    ),
    "capacity": ({"L_prime": 2, "l": 1}, {"L_prime": _BAD_COUNT, "l": _BAD_COUNT}),
    "choose_l": ({"K": 3, "L_prime": 2}, {"K": _BAD_COUNT, "L_prime": _BAD_COUNT}),
    "code_efficiency": ({"L_prime": 2, "l": 1}, {"L_prime": _BAD_COUNT, "l": _BAD_COUNT}),
    "decode_energy_vector": (
        {"observed": _BOOK.columns[:, 0], "book": _BOOK},
        {"observed": _bad_array(_BOOK.columns[:, 0], integer=True, nonneg=True, axis=0)},
    ),
    "superpose": ({"active_ues": [0, 2], "book": _BOOK}, {"active_ues": _BAD_GROUPS}),
    "comb_tone_set": ({"params": _P}, {}),
    "dantzig_epsilon": ({"noise_variance": 0.1, "X": _X}, {"noise_variance": _BAD_REAL}),
    "dantzig_recover": (
        {"y": _X.rows @ _H.taps, "X": _X, "noise_variance": 0.1},
        {"y": _bad_array(_X.rows @ _H.taps, axis=0), "noise_variance": _BAD_REAL},
    ),
    "omp_recover": (
        {"y": _X.rows @ _H.taps, "X": _X, "sparsity": 4},
        {"y": _bad_array(_X.rows @ _H.taps, axis=0), "sparsity": _BAD_COUNT},
    ),
    "fde_ls_recover": (
        {"y_full": _COMB.rows @ _H.taps, "X_full": _COMB},
        {"y_full": _bad_array(_COMB.rows @ _H.taps, axis=0)},
    ),
    "nmse": (
        {"true_h": _H.taps, "estimate": _H.taps},
        {"true_h": _bad_array(_H.taps, axis=0), "estimate": _bad_array(_H.taps, axis=0)},
    ),
    "threshold_support": (
        {"estimate": _H.taps, "floor": 0.01},
        {"estimate": _bad_array(_H.taps), "floor": _BAD_REAL},
    ),
    "solve_lp": (
        {"v": np.ones(3), "V": _V, "t": 0.5},
        {
            "v": _bad_array(np.ones(3), real=True, axis=0),
            "V": _bad_array(_V, real=True, axis=1),
            "t": _BAD_REAL,
        },
    ),
}

_SUBSTITUTIONS = [
    pytest.param(name, arg, bad, id=f"{name}-{arg}-{label}")
    for name, (_, args) in _WALK.items()
    for arg, values in args.items()
    for label, bad in values.items()
]


def test_every_export_has_a_walk_row():
    exports = {
        name
        for name in dir(cspilot)
        if not name.startswith("_") and callable(getattr(cspilot, name))
    }
    assert exports - _EXEMPT == set(_WALK)


@pytest.mark.parametrize("name", list(_WALK))
def test_walk_good_call_passes(name):
    # each substitution below changes one argument of this call
    good, _ = _WALK[name]
    getattr(cspilot, name)(**good)


@pytest.mark.parametrize("name, arg, bad", _SUBSTITUTIONS)
def test_walk_bad_argument_raises_value_error(name, arg, bad):
    good, _ = _WALK[name]
    with pytest.raises(ValueError):
        getattr(cspilot, name)(**{**good, arg: bad})
