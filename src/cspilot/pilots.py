"""Binary pilot codebooks for aggressive pilot reuse.

Orthogonal pre-allocation would hand each of K UEs a disjoint set of M tones.
Aggressive reuse instead assigns every UE in a group the same L pilot
dimensions together with a binary on/off column: each column carries
``L'`` ones (transmit) and ``l`` zeros (keep silent).  A base station
observing the group's per-dimension energy pattern can then tell apart
"no UE", "exactly this UE", and "two or more UEs", because distinct
l-zero columns never combine into another column's pattern.

Codebook columns are the first K l-subsets of the L rows in reverse
colexicographic order, which is the order `itertools.combinations` lists
the l-subsets of the rows taken in descending order.  In that order column
k is the subset whose zero rows c_1 < ... < c_l have rank
``C(L, l) - 1 - sum_i C(c_i, i)`` (the combinatorial number system), so an
observed zero set is decoded by ranking it, without search.
`decode_energy_vectors` ranks a whole (n, L) stack of patterns in blocks
of rows, from the Python-int binomials of each pattern's own zero rows, and
`superpose` ORs an (n, g) stack of UE groups; the one-pattern calls are
their one-row case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .channel import _as_count


# zero rows per block built or ranked, bounding its index and binomial arrays
_BLOCK = 2**13


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
        subsets = itertools.islice(itertools.combinations(range(L - 1, -1, -1), l), K)
        columns = np.ones((L, K), dtype=np.uint8)
        width = max(1, _BLOCK // l)
        for start in range(0, K, width):  # each block's (n, l) zero rows
            rows = np.array(list(itertools.islice(subsets, width)), dtype=np.intp)
            columns[rows, np.arange(start, start + len(rows))[:, None]] = 0
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)

    @property
    def dimension(self) -> int:
        return self.ones_per_column + self.zeros_per_column


def build_codebook(K: int, L_prime: int, l: int) -> PilotCodebook:
    """First K zero-patterns in reverse colexicographic order.

    For l = 1 and K = L this puts column i's single zero in row L-1-i,
    the anti-diagonal pattern; larger l extends the same ordering over all
    l-subsets of rows.  Only the K requested columns are enumerated.
    """
    return PilotCodebook(ones_per_column=L_prime, zeros_per_column=l, user_count=K)


@dataclass(frozen=True)
class DecodeOutcome:
    kind: str  # empty | identified | collision | invalid
    ue_index: int | None = None


def superpose(active_ues, book: PilotCodebook) -> np.ndarray:
    """Componentwise OR of the active columns (ideal energy detection).

    `active_ues` is one group, a 1-D list of column indices of `book`,
    whose (L,) pattern is returned, or an (n, g) array of n groups of g,
    whose (n, L) patterns are returned.  Raises ``ValueError`` for any
    other shape, a non-integer index or an index outside [0, K).
    """
    groups = np.asarray(active_ues)
    if groups.ndim not in (1, 2):
        raise ValueError(
            f"active_ues must be a 1-D list or an (n, g) array of UE indices, got {active_ues!r}"
        )
    if not isinstance(active_ues, np.ndarray):  # numpy would read [True, 0] as [1, 0]
        for k in np.asarray(active_ues, dtype=object).flat:
            _as_count(k, "UE index")
    if groups.size and groups.dtype.kind not in "iu":  # [] is float: it ORs nothing
        raise ValueError(f"UE index must be an integer, got {active_ues!r}")
    outside = (groups < 0) | (groups >= book.user_count)
    if outside.any():  # -1 would wrap to the last column
        raise ValueError(f"UE index {int(groups[outside][0])} is not in [0, {book.user_count})")
    return np.bitwise_or.reduce(book.columns.T[groups.astype(np.intp)], axis=-2)


def decode_energy_vectors(observed, book: PilotCodebook) -> tuple[np.ndarray, np.ndarray]:
    """Classify each row of an (n, L) stack of observed high/low energy patterns.

    All dimensions low means no UE transmitted; exactly l lows matching a
    column identifies that UE, whose index is the rank of the low set;
    fewer than l lows can only arise from overlapping transmissions, a
    collision.  Any other pattern (including l lows matching no column) is
    reported invalid — with imperfect detection the three clean outcomes
    are not exhaustive.  A rank sums ``C(c_i, i)`` over the pattern's own
    zero rows in Python ints, so it is exact at any C(L, l).  Returns
    ``(kinds, ue_indices)``: each row's kind (empty, identified, collision
    or invalid) and its UE index, -1 unless identified.  Raises
    ``ValueError`` unless `observed` is 2-D with L columns holding only 0
    or 1, as integers or floats (no bool).
    """
    observed = np.asarray(observed)
    L, l = book.dimension, book.zeros_per_column
    if observed.ndim != 2 or observed.shape[1] != L:
        raise ValueError(f"observed patterns have shape {observed.shape}, expected (n, {L})")
    low = observed == 0
    if observed.dtype.kind not in "iuf" or not (low | (observed == 1)).all():
        raise ValueError(f"observed entries must be 0 or 1, got {observed!r}")
    zeros = np.count_nonzero(low, axis=1)
    kinds = np.full(len(observed), "invalid", dtype="<U10")
    kinds[zeros < l] = "collision"
    kinds[zeros == L] = "empty"
    ue_indices = np.full(len(observed), -1, dtype=np.int64)
    exact = np.flatnonzero(zeros == l)
    ranks = np.empty(len(exact), dtype=object)
    height = max(1, _BLOCK // l)
    for start in range(0, len(exact), height):
        rows = np.nonzero(low[exact[start : start + height]])[1].reshape(-1, l)  # ascending
        binomials = np.frompyfunc(math.comb, 2, 1)(rows, np.arange(1, l + 1))
        ranks[start : start + height] = math.comb(L, l) - 1 - binomials.sum(axis=1)
    known = ranks < book.user_count
    kinds[exact[known]] = "identified"
    ue_indices[exact[known]] = ranks[known]
    return kinds, ue_indices


def decode_energy_vector(observed, book: PilotCodebook) -> DecodeOutcome:
    """`decode_energy_vectors` of one (L,) pattern; `ue_index` is None unless identified."""
    observed = np.asarray(observed)
    if observed.shape != (book.dimension,):
        raise ValueError(
            f"observed vector has shape {observed.shape}, expected ({book.dimension},)"
        )
    kinds, ue_indices = decode_energy_vectors(observed[None], book)
    kind = str(kinds[0])
    return DecodeOutcome(kind=kind, ue_index=int(ue_indices[0]) if kind == "identified" else None)


def code_efficiency(L_prime: int, l: int) -> Fraction:
    """Fraction of pilot dimensions actually used for training: L'/(L'+l)."""
    capacity(L_prime, l)  # checks both counts
    return Fraction(L_prime, L_prime + l)
