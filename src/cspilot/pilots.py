"""Binary pilot codebooks for aggressive pilot reuse.

Orthogonal pre-allocation would hand each of K UEs a disjoint set of M tones.
Aggressive reuse instead assigns every UE in a group the same L pilot
dimensions together with a binary on/off column: each column carries
``L'`` ones (transmit) and ``l`` zeros (keep silent).  A base station
observing the group's per-dimension energy pattern can then tell apart
"no UE", "exactly this UE", and "two or more UEs", because distinct
l-zero columns never combine into another column's pattern.

Codebook columns are the first K l-subsets of the L rows in reverse
colexicographic order.  In that order column k is the subset whose zero
rows c_1 < ... < c_l have rank ``C(L, l) - 1 - sum_i C(c_i, i)`` (the
combinatorial number system), so columns are built by unranking their
index and an observed zero set is decoded by ranking it, without search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import _as_count


class CapacityExceededError(ValueError):
    """More users requested than the code supports."""


def capacity(L_prime: int, l: int) -> int:
    """Largest user count a code with L' >= 1 ones and l >= 1 zeros per column can host."""
    # Python ints: a numpy int8 pair would overflow in the sum
    L_prime, l = _as_count(L_prime, "L_prime"), _as_count(l, "l")
    for value, name in ((L_prime, "L_prime"), (l, "l")):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    return math.comb(L_prime + l, l)


def choose_l(K: int, L_prime: int) -> int:
    """Smallest zero count l >= 1 whose capacity C(L'+l, l) reaches K users."""
    if _as_count(K, "K") < 1:
        raise ValueError(f"K must be positive, got {K!r}")
    l = 1
    while capacity(L_prime, l) < K:
        l += 1
    return l


def _rank(zero_rows, L: int, l: int) -> int:
    """Reverse-colex index of the l-subset with ascending rows ``zero_rows``."""
    return math.comb(L, l) - 1 - sum(math.comb(c, i) for i, c in enumerate(zero_rows, start=1))


def _unrank(k: int, L: int, l: int) -> list:
    """Zero rows (descending) of the l-subset with reverse-colex index k."""
    remainder = math.comb(L, l) - 1 - k
    rows = []
    c = L
    for i in range(l, 0, -1):
        c -= 1
        while math.comb(c, i) > remainder:
            c -= 1
        rows.append(c)
        remainder -= math.comb(c, i)
    return rows


@dataclass(frozen=True)
class PilotCodebook:
    """The L x K on/off matrix fixed by L' ones and l zeros per column and K users.

    Column k of the read-only `columns` is the k-th zero pattern in reverse
    colex order, so a UE decodes from the rank of its zero set.  Counts
    must be integers with L', l >= 1 and 0 <= K <= capacity (above it,
    `CapacityExceededError`); else ``ValueError``.
    """

    ones_per_column: int
    zeros_per_column: int
    user_count: int
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # stored as Python ints, so `dimension` cannot overflow a numpy dtype
        for name in ("ones_per_column", "zeros_per_column", "user_count"):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        cap = capacity(self.ones_per_column, self.zeros_per_column)
        K, L, l = self.user_count, self.dimension, self.zeros_per_column
        if K < 0:
            raise ValueError(f"user_count must be nonnegative, got {K}")
        if K > cap:
            raise CapacityExceededError(f"K={K} exceeds capacity C({L},{l})={cap}")
        columns = np.ones((L, K), dtype=np.uint8)
        for k in range(K):
            columns[_unrank(k, L, l), k] = 0
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)

    @property
    def dimension(self) -> int:
        return self.ones_per_column + self.zeros_per_column


def build_codebook(K: int, L_prime: int, l: int) -> PilotCodebook:
    """First K zero-patterns in reverse colexicographic order.

    For l = 1 and K = L this puts column i's single zero in row L-1-i,
    the anti-diagonal pattern; larger l extends the same ordering over all
    l-subsets of rows.  Only the K requested columns are unranked.
    """
    return PilotCodebook(ones_per_column=L_prime, zeros_per_column=l, user_count=K)


@dataclass(frozen=True)
class DecodeOutcome:
    kind: str  # empty | identified | collision | invalid
    ue_index: int | None = None


def superpose(active_ues, book: PilotCodebook) -> np.ndarray:
    """Componentwise OR of the active columns (ideal energy detection).

    Raises ``ValueError`` unless `active_ues` is a 1-D list of integer
    column indices of `book`.
    """
    if not np.iterable(active_ues):  # a 2-D list fails as a UE index below
        raise ValueError(f"active_ues must be a 1-D list of UE indices, got {active_ues!r}")
    pattern = np.zeros(book.dimension, dtype=np.uint8)
    for k in active_ues:
        if not 0 <= _as_count(k, "UE index") < book.user_count:
            raise ValueError(f"UE index {k!r} is not in [0, {book.user_count})")
        pattern |= book.columns[:, k]
    return pattern


def decode_energy_vector(observed, book: PilotCodebook) -> DecodeOutcome:
    """Classify an observed high/low energy pattern.

    All dimensions low means no UE transmitted; exactly l lows matching a
    column identifies that UE, whose index is the rank of the low set;
    fewer than l lows can only arise from overlapping transmissions, a
    collision.  Any other pattern (including l lows matching no column) is
    reported invalid — with imperfect detection the three clean outcomes
    are not exhaustive.  Raises ``ValueError`` unless `observed` holds
    exactly one 0 or 1 per pilot dimension, as integers or floats (no bool).
    """
    observed = np.asarray(observed)
    if observed.shape != (book.dimension,):
        raise ValueError(
            f"observed vector has length {observed.size}, expected {book.dimension}"
        )
    zeros = np.flatnonzero(observed == 0).tolist()
    binary = len(zeros) + np.count_nonzero(observed == 1) == book.dimension
    if observed.dtype.kind not in "iuf" or not binary:
        raise ValueError(f"observed entries must be 0 or 1, got {observed!r}")
    if len(zeros) == book.dimension:
        return DecodeOutcome(kind="empty")
    if len(zeros) == book.zeros_per_column:
        k = _rank(zeros, book.dimension, book.zeros_per_column)
        if k < book.user_count:
            return DecodeOutcome(kind="identified", ue_index=k)
        return DecodeOutcome(kind="invalid")
    if len(zeros) < book.zeros_per_column:
        return DecodeOutcome(kind="collision")
    return DecodeOutcome(kind="invalid")


def code_efficiency(L_prime: int, l: int) -> Fraction:
    """Fraction of pilot dimensions actually used for training: L'/(L'+l)."""
    capacity(L_prime, l)  # checks both counts
    return Fraction(L_prime, L_prime + l)
