"""Bad scalars and arrays at the public entry points raise ``ValueError``.

One row per (entry point, bad value): a str, complex, bool or non-finite
number where a real scalar belongs, a 2-D list or a scalar where a 1-D one
belongs, bool, str or complex arrays where numbers belong, and counts below
their range.  A ``TypeError`` or a returned result fails the row.
"""

import math

import numpy as np
import pytest

from cspilot.channel import (
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
from cspilot.pilots import capacity
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
_X = build_sensing_matrix(select_pilot_tones(_P, np.random.default_rng(0)), _P)
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
    "taps-str": lambda: SparseChannel(np.array(["1"]), [0]),
    "sensing-rows-str": lambda: SensingMatrix(np.array([["1"]]), np.array([0])),
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
}


@pytest.mark.parametrize("call", list(_ROWS.values()), ids=list(_ROWS))
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
