"""Bad scalars and arrays at the public entry points raise ``ValueError``.

One row per (entry point, bad value): a str, complex, bool or non-finite
number where a real scalar belongs, a 2-D list where a 1-D one belongs, and
bool arrays where channel taps belong.  A ``TypeError`` or a returned result
fails the row.
"""

import math

import numpy as np
import pytest

from cspilot.channel import (
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from cspilot.detection import DetectionConfig, min_threshold_for_network
from cspilot.netsim import NetworkModel
from cspilot.recovery import dantzig_epsilon, nmse, threshold_support

_P = default_params()
_X = build_sensing_matrix(select_pilot_tones(_P, np.random.default_rng(0)), _P)
_H = sample_channel(_P, np.random.default_rng(1))

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
