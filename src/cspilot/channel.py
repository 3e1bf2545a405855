"""OFDM system parameters, sparse multipath channels, and the pilot measurement model.

A wideband channel of delay spread tau_max sampled at bandwidth W has
``W*tau_max`` resolvable taps, of which only ``S`` are significant.  Pilot
symbols on a subset of the ``W*T`` subcarriers observe the channel through a
partial-DFT sensing matrix; this module builds those objects and synthesizes
noisy measurements ``y = X h + z``.  Pilots have unit energy, so the SNR of
a tone is ``1 / sigma^2`` for noise variance sigma^2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


def _as_count(value, name: str) -> int:
    """`value` as an int via `operator.index` (numpy integers pass); else ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_indices(values, name: str) -> np.ndarray:
    """`values` as an int array; ``ValueError`` unless every entry is an integer."""
    indices = np.asarray(values)
    if indices.size and indices.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {indices!r}")
    return indices.astype(int, copy=False)


@dataclass(frozen=True)
class OfdmParams:
    """Dimensions of the pilot training problem; every count must be an integer.

    Parameters
    ----------
    bandwidth_time_product : int
        Number of OFDM subcarriers (W*T).
    tap_count : int
        Channel length in taps (W*tau_max).
    sparsity : int
        Number of significant taps S.
    pilot_count : int
        Pilot tones per UE; the usual working point is ``5 * sparsity``.
    """

    bandwidth_time_product: int
    tap_count: int
    sparsity: int
    pilot_count: int

    def __post_init__(self):
        for name in ("bandwidth_time_product", "tap_count", "sparsity", "pilot_count"):
            _as_count(getattr(self, name), name)
        if not (1 <= self.sparsity <= self.tap_count <= self.bandwidth_time_product):
            raise ValueError(
                "need 1 <= sparsity <= tap_count <= bandwidth_time_product, got "
                f"S={self.sparsity}, taps={self.tap_count}, WT={self.bandwidth_time_product}"
            )
        if self.pilot_count < self.sparsity:
            raise ValueError("pilot_count must be at least sparsity")
        if self.pilot_count > self.bandwidth_time_product:
            raise ValueError("pilot_count cannot exceed the number of subcarriers")


def default_params(**overrides) -> OfdmParams:
    """Standard working point: WT=1000, 100 taps, S=4, M=20."""
    base = dict(
        bandwidth_time_product=1000,
        tap_count=100,
        sparsity=4,
        pilot_count=20,
    )
    base.update(overrides)
    return OfdmParams(**base)


@dataclass
class SparseChannel:
    """S-sparse complex tap vector with its support set; ``ValueError`` on a non-finite tap."""

    taps: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=complex)
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")
        self.support = _as_indices(self.support, "support")
        nz = np.flatnonzero(self.taps)
        if not np.array_equal(np.sort(self.support), nz):
            raise ValueError("support must be exactly the nonzero tap indices")


@dataclass(frozen=True)
class SensingMatrix:
    """Partial-DFT pilot observation matrix.

    ``rows[m, d] = exp(-2j*pi*n_m*d / WT)`` for the m-th selected tone n_m and
    delay column d; every entry has unit magnitude.

    `rows` is kept as a read-only complex copy, so an operator derived from
    it and stored by `cached` (the Dantzig LP's constraint factors, the dense
    LS pseudo-inverse) stays valid for the life of the matrix.
    """

    rows: np.ndarray
    tone_set: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.array(self.rows, dtype=complex)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def cached(self, key, build):
        """``build(self)`` on the first call with `key`; the stored result after.

        A `build` that raises stores nothing, so it raises again next call.
        """
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]


def sample_channel(params: OfdmParams, rng: np.random.Generator) -> SparseChannel:
    """Draw an S-sparse channel: uniform support, unit-variance complex Gaussian gains."""
    support = np.sort(rng.choice(params.tap_count, size=params.sparsity, replace=False))
    gains = (
        rng.standard_normal(params.sparsity) + 1j * rng.standard_normal(params.sparsity)
    ) / np.sqrt(2.0)
    taps = np.zeros(params.tap_count, dtype=complex)
    taps[support] = gains
    return SparseChannel(taps=taps, support=support)


def select_pilot_tones(params: OfdmParams, rng: np.random.Generator) -> np.ndarray:
    """Pick ``pilot_count`` distinct tones uniformly from all subcarriers, ascending."""
    return np.sort(
        rng.choice(params.bandwidth_time_product, size=params.pilot_count, replace=False)
    )


def build_sensing_matrix(tone_set, params: OfdmParams) -> SensingMatrix:
    """Assemble the partial-DFT matrix for the given tones, rows in ascending tone order."""
    tones = np.sort(_as_indices(list(tone_set), "tone_set"))
    if tones.size and (tones[0] < 0 or tones[-1] >= params.bandwidth_time_product):
        raise ValueError("tone indices out of range")
    if np.unique(tones).size != tones.size:
        raise ValueError("tone indices must be distinct")
    n = tones[:, None].astype(float)
    d = np.arange(params.tap_count)[None, :].astype(float)
    rows = np.exp(-2j * np.pi * n * d / params.bandwidth_time_product)
    return SensingMatrix(rows=rows, tone_set=tones)


def synthesize_measurement(
    X: SensingMatrix, h: SparseChannel, noise_variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Noisy matched-filter outputs ``y = X h + z``.

    ``z`` is i.i.d. circularly-symmetric complex Gaussian with per-entry
    variance ``noise_variance``; variance 0 yields an exact noiseless
    measurement (no RNG draw).
    """
    if X.rows.shape[1] != h.taps.shape[0]:
        raise ValueError(
            f"sensing matrix has {X.rows.shape[1]} delay columns, channel has "
            f"{h.taps.shape[0]} taps"
        )
    if not (math.isfinite(noise_variance) and noise_variance >= 0):
        raise ValueError("noise_variance must be finite and nonnegative")
    y = X.rows @ h.taps
    if noise_variance > 0:
        m = X.rows.shape[0]
        z = np.sqrt(noise_variance / 2.0) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        y = y + z
    return y
