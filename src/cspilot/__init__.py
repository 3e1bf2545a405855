"""Compressed-sensing pilot training for mmWave small cells.

Library layout:

* `cspilot.channel` — OFDM parameters, sparse channels, sensing matrices
* `cspilot.recovery` — Dantzig-selector LP, OMP oracle, dense LS baseline
* `cspilot.simplex` — self-contained dense dual simplex for nonnegative costs
* `cspilot.detection` — massive-MIMO energy detection
* `cspilot.pilots` — orthogonal allocation and binary pilot codebooks
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
    detect,
    energy_metric,
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
    place_ues,
    reuse_gain,
    rho_metrics,
)
from .pilots import (
    CapacityExceededError,
    DecodeOutcome,
    PilotAllocation,
    PilotCodebook,
    allocate_orthogonal,
    build_codebook,
    capacity,
    choose_l,
    code_efficiency,
    decode_energy_vector,
    read_codebook,
    superpose,
    write_codebook,
)
from .recovery import (
    DantzigConfig,
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
