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
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np


def _as_count(value, name: str) -> int:
    """`value` as an int via `operator.index` (numpy integers pass); else ``ValueError``.

    A bool is refused: `operator.index` would read True as 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_real(value, name: str) -> float:
    """`value` as a finite float; else ``ValueError`` naming `name`.

    Real numbers pass, numpy ones too; a bool, a str, a complex and a
    non-finite value are refused.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _as_finite(values, name: str, kinds: str = "iufc", ndim: int | None = None) -> np.ndarray:
    """`values` as an array of finite numbers; else ``ValueError`` naming `name`.

    Its dtype kind must be in `kinds` (integer, float, complex), so bool,
    str and object arrays are refused, and complex ones when "c" is left out;
    when `ndim` is given, the array must have that many dimensions.
    """
    array = np.asarray(values)
    if array.dtype.kind not in kinds or not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite numbers, got dtype {array.dtype}")
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    return array


def _as_tones(values, ndim: int = 1) -> np.ndarray:
    """`values` as a 1-D int set of distinct nonnegative tones, or a 2-D stack of them.

    `ndim` says which; else ``ValueError``.  The tones keep their order.
    """
    tones = np.asarray(values)
    if tones.ndim != ndim or (tones.size and tones.dtype.kind not in "iu"):
        stack = " per row of a 2-D stack" if ndim == 2 else ""
        raise ValueError(f"tone_set must be integers in a 1-D set{stack}, got {tones!r}")
    tones = tones.astype(int, copy=False)
    ordered = np.sort(tones, axis=-1)
    if tones.size and (ordered.min() < 0 or (ordered[..., 1:] == ordered[..., :-1]).any()):
        raise ValueError("tone indices must be distinct and nonnegative")
    return tones


def _as_points(points, kind, name: str) -> list:
    """`points`, a non-empty list or tuple of `kind` instances, as a list; else ``ValueError``."""
    if not isinstance(points, (list, tuple)) or not points:
        got = repr(points) if isinstance(points, (list, tuple)) else type(points).__name__
        raise ValueError(f"{name} must be a non-empty list of {kind.__name__}, got {got}")
    for point in points:
        if not isinstance(point, kind):
            raise ValueError(f"{name} must hold {kind.__name__} instances, got {point!r:.80}")
    return list(points)


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
    """Standard working point: WT=1000, 100 taps, S=4, M=20, with `overrides` fields replaced."""
    return replace(OfdmParams(1000, 100, 4, 20), **overrides)


@dataclass
class SparseChannel:
    """Complex tap vector; ``ValueError`` unless `taps` is a 1-D array of finite numbers."""

    taps: np.ndarray

    def __post_init__(self):
        self.taps = _as_finite(self.taps, "taps", ndim=1).astype(complex, copy=False)

    @property
    def support(self) -> np.ndarray:
        """Indices of the nonzero taps, ascending."""
        return np.flatnonzero(self.taps)


@dataclass(frozen=True)
class SensingMatrix:
    """Partial-DFT pilot observation matrix.

    ``rows[m, d] = exp(-2j*pi*n_m*d / WT)`` for the m-th selected tone n_m and
    delay column d; every entry has unit magnitude.

    `rows` is kept as a read-only complex copy, so an operator derived from
    it and stored by `cached` (the Dantzig LP's factor V, the dense LS
    pseudo-inverse) stays valid for the life of the matrix.  Raises
    ``ValueError`` unless `rows` is a 2-D array of finite numbers.
    """

    rows: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _as_finite(self.rows, "rows", ndim=2).astype(complex)
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
    return SparseChannel(taps=taps)


def select_pilot_tones(params: OfdmParams, rng: np.random.Generator) -> np.ndarray:
    """Pick ``pilot_count`` distinct tones uniformly from all subcarriers, ascending."""
    return np.sort(
        rng.choice(params.bandwidth_time_product, size=params.pilot_count, replace=False)
    )


def _partial_dft(tones: np.ndarray, params: OfdmParams) -> np.ndarray:
    """``exp(-2j*pi*n*d / WT)`` for each tone n on the last axis of `tones` and each delay d.

    A stack of tone sets gives the stack of their matrices, shape
    ``tones.shape + (tap_count,)``, from one ``exp``; each matrix has the
    bits of the one built alone.
    """
    n = tones[..., None].astype(float)
    d = np.arange(params.tap_count).astype(float)
    return np.exp(-2j * np.pi * n * d / params.bandwidth_time_product)


def build_sensing_matrices(tone_sets, params: OfdmParams) -> list[SensingMatrix]:
    """`build_sensing_matrix` of each row of an (n, M) stack of tone sets, from one ``exp``.

    Each matrix has the bits of the one built alone.  Raises ``ValueError``
    unless `tone_sets` is a non-empty 2-D stack of sets of distinct integer
    tones in ``[0, WT)``.
    """
    tones = np.sort(_as_tones(tone_sets, ndim=2), axis=-1)
    if not len(tones):
        raise ValueError("tone_sets holds no tone set")
    if tones.size and tones[:, -1].max() >= params.bandwidth_time_product:
        raise ValueError("tone indices out of range")
    return [SensingMatrix(rows=rows) for rows in _partial_dft(tones, params)]


def build_sensing_matrix(tone_set, params: OfdmParams) -> SensingMatrix:
    """Assemble the partial-DFT matrix for the given tones, rows in ascending tone order."""
    return build_sensing_matrices(np.asarray(tone_set)[None], params)[0]


def _matrix_rows(X) -> np.ndarray:
    """The (M, D) rows of one `SensingMatrix`, or the (n, M, D) stack of a list of them."""
    if isinstance(X, SensingMatrix):
        return X.rows
    matrices = _as_points(X, SensingMatrix, "X")
    shapes = {x.rows.shape for x in matrices}
    if len(shapes) > 1:
        raise ValueError(f"sensing matrices of several shapes: {sorted(shapes)}")
    return np.array([x.rows for x in matrices])


def _noise(m: int, noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """m circularly-symmetric complex Gaussian draws of variance `noise_variance`.

    The real parts are drawn first, then the imaginary parts.
    """
    return np.sqrt(noise_variance / 2.0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


def synthesize_measurements(X, channels, noise_variance: float, rngs) -> np.ndarray:
    """`synthesize_measurement` of each channel in `channels`, as the rows of an (n, M) array.

    `X` is one `SensingMatrix` for every channel or a list of one per
    channel; channel i's noise is drawn from ``rngs[i]`` alone, real parts
    first, and variance 0 draws nothing.  Each product is one
    matrix-vector call, so a row has the bits of the measurement made
    alone.  Raises ``ValueError`` unless `channels` is a non-empty list of
    `SparseChannel`, with one matrix (when a list) and one generator per
    channel, every channel has a tap per delay column of `X`, and
    `noise_variance` is a finite, nonnegative real number.
    """
    taps = [h.taps for h in _as_points(channels, SparseChannel, "channels")]
    rows, n = _matrix_rows(X), len(taps)
    if (rows.ndim == 3 and len(rows) != n) or len(rngs) != n:
        raise ValueError(f"{n} channels need a generator each, and one matrix each or one for all")
    d = rows.shape[-1]
    for h in taps:
        if h.size != d:
            raise ValueError(f"sensing matrix has {d} delay columns, a channel has {h.size} taps")
    if _as_real(noise_variance, "noise_variance") < 0:
        raise ValueError("noise_variance must be finite and nonnegative")
    y = (rows @ np.array(taps)[..., None])[..., 0]
    if noise_variance == 0:
        return y
    return y + np.array([_noise(rows.shape[-2], noise_variance, rng) for rng in rngs])


def synthesize_measurement(
    X: SensingMatrix, h: SparseChannel, noise_variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Noisy matched-filter outputs ``y = X h + z``.

    ``z`` is i.i.d. circularly-symmetric complex Gaussian with per-entry
    variance ``noise_variance``; variance 0 yields an exact noiseless
    measurement (no RNG draw).  The one-channel case of
    `synthesize_measurements`.
    """
    return synthesize_measurements(X, [h], noise_variance, [rng])[0]
