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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import _as_count


class CapacityExceededError(ValueError):
    """More users requested than the code supports."""


def capacity(L_prime: int, l: int) -> int:
    """Largest user count a code with L' >= 1 ones and l >= 1 zeros per column can host."""
    for value, name in ((L_prime, "L_prime"), (l, "l")):
        if _as_count(value, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    return math.comb(L_prime + l, l)


def choose_l(K: int, L_prime: int) -> int:
    """Smallest zero count l >= 1 whose capacity C(L'+l, l) reaches K users."""
    if _as_count(K, "K") < 1 or _as_count(L_prime, "L_prime") < 1:
        raise ValueError("K and L_prime must be positive")
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


@dataclass
class PilotCodebook:
    """L x K binary matrix; column k is UE k's on/off pattern.

    The columns must be the first K zero patterns in reverse
    colexicographic order, as `build_codebook` makes them: decoding finds a
    UE from the rank of its zero set, so any other matrix is rejected with
    ``ValueError`` rather than decoded to the wrong UE.  `columns` is kept
    as a read-only copy, so it cannot be edited after that check.
    """

    ones_per_column: int
    zeros_per_column: int
    columns: np.ndarray

    def __post_init__(self):
        for name in ("ones_per_column", "zeros_per_column"):
            if _as_count(getattr(self, name), name) < 1:
                raise ValueError("ones_per_column and zeros_per_column must be positive")
        L, l = self.dimension, self.zeros_per_column
        cols = np.array(self.columns)  # a private copy, read-only once validated
        if cols.ndim != 2 or cols.shape[0] != L or not np.isin(cols, (0, 1)).all():
            raise ValueError(f"columns must be a 0/1 matrix with {L} rows")
        for k in range(cols.shape[1]):
            zeros = np.flatnonzero(cols[:, k] == 0).tolist()
            if len(zeros) != l or _rank(zeros, L, l) != k:
                raise ValueError(
                    f"column {k} is not the {l}-zero pattern of reverse-colex rank {k}"
                )
        cols.flags.writeable = False
        self.columns = cols

    @property
    def dimension(self) -> int:
        return self.ones_per_column + self.zeros_per_column

    @property
    def user_count(self) -> int:
        return self.columns.shape[1]


def build_codebook(K: int, L_prime: int, l: int) -> PilotCodebook:
    """First K zero-patterns in reverse colexicographic order.

    For l = 1 and K = L this puts column i's single zero in row L-1-i,
    the anti-diagonal pattern; larger l extends the same ordering over all
    l-subsets of rows.  Only the K requested columns are unranked.
    """
    if _as_count(L_prime, "L_prime") < 1 or _as_count(l, "l") < 1:
        raise ValueError("L_prime and l must be positive")
    if _as_count(K, "K") < 0:
        raise ValueError("K must be nonnegative")
    cap = capacity(L_prime, l)
    if K > cap:
        raise CapacityExceededError(f"K={K} exceeds capacity C({L_prime + l},{l})={cap}")
    L = L_prime + l
    columns = np.ones((L, K), dtype=np.uint8)
    for k in range(K):
        columns[_unrank(k, L, l), k] = 0
    return PilotCodebook(ones_per_column=L_prime, zeros_per_column=l, columns=columns)


@dataclass(frozen=True)
class DecodeOutcome:
    kind: str  # empty | identified | collision | invalid
    ue_index: int | None = None


def superpose(active_ues, book: PilotCodebook) -> np.ndarray:
    """Componentwise OR of the active columns (ideal energy detection).

    Raises ``ValueError`` for a UE index that is not a column of `book`.
    """
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
    exactly one 0 or 1 per pilot dimension.
    """
    observed = np.asarray(observed)
    if observed.shape != (book.dimension,):
        raise ValueError(
            f"observed vector has length {observed.size}, expected {book.dimension}"
        )
    zeros = np.flatnonzero(observed == 0).tolist()
    if len(zeros) + np.count_nonzero(observed == 1) != book.dimension:
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
    if _as_count(L_prime, "L_prime") < 1 or _as_count(l, "l") < 1:
        raise ValueError("L_prime and l must be positive")
    return Fraction(L_prime, L_prime + l)
