"""Compressed-sensing pilot training for mmWave small cells.

Library layout:

* `cspilot.channel` — OFDM parameters, sparse channels, sensing matrices,
  unit-energy pilot measurements ``y = X h + z``
* `cspilot.recovery` — Dantzig-selector LP, OMP oracle, dense LS baseline,
  each sized by its sensing matrix alone
* `cspilot.simplex` — self-contained factored compact-tableau dual simplex
  for the Dantzig selector's l1 LP
* `cspilot.detection` — massive-MIMO energy detection
* `cspilot.pilots` — binary pilot codebooks
* `cspilot.netsim` — collision analysis and multiplexing metrics
* `cspilot.cli` — seeded batch experiments emitting CSV
"""

__version__ = "0.1.0"

from .channel import (
    OfdmParams,
    SensingMatrix,
    SparseChannel,
    build_sensing_matrix,
    default_params,
    sample_channel,
    select_pilot_tones,
    synthesize_measurement,
)
from .detection import (
    DetectionConfig,
    error_probability,
    error_probability_mc,
    min_threshold_for_network,
    optimal_threshold,
)
from .netsim import (
    NetworkModel,
    RhoMetrics,
    collision_probability,
    collision_probability_mc,
    expected_singletons,
    optimal_group_size,
    reuse_gain,
    rho_metrics,
)
from .pilots import (
    CapacityExceededError,
    DecodeOutcome,
    PilotCodebook,
    build_codebook,
    capacity,
    choose_l,
    code_efficiency,
    decode_energy_vector,
    superpose,
)
from .recovery import (
    RecoveryResult,
    comb_tone_set,
    dantzig_epsilon,
    dantzig_recover,
    fde_ls_recover,
    nmse,
    omp_recover,
    threshold_support,
)
from .simplex import LpResult, solve_lp
