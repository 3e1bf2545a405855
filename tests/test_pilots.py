import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspilot import pilots
from cspilot.pilots import (
    CapacityExceededError,
    PilotCodebook,
    build_codebook,
    capacity,
    choose_l,
    code_efficiency,
    decode_energy_vector,
    decode_energy_vectors,
    superpose,
)

# canonical single-zero book for three transmit dimensions:
# column i keeps silent in row L-1-i
ANTI_DIAGONAL_4 = np.array(
    [
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
    ],
    dtype=np.uint8,
)


def zero_set(book, k):
    return frozenset(np.flatnonzero(book.columns[:, k] == 0).tolist())


def test_capacity_and_choose_l():
    assert capacity(20, 1) == 21
    assert capacity(20, 2) == 231
    assert choose_l(1, 20) == 1
    assert choose_l(21, 20) == 1  # K = L'+1 fits the single-zero code
    assert choose_l(22, 20) == 2
    assert choose_l(231, 20) == 2
    assert choose_l(232, 20) == 3
    with pytest.raises(ValueError):
        choose_l(0, 20)


@pytest.mark.parametrize(
    "call",
    [
        lambda: choose_l(5, 2.5),
        lambda: build_codebook(2.5, 3, 1),
        lambda: capacity(2.5, 1),
        lambda: code_efficiency(2.5, 1),
        lambda: superpose([1.0], build_codebook(3, 2, 1)),
    ],
    ids=["choose_l", "build_codebook", "capacity", "code_efficiency", "superpose"],
)
def test_fractional_counts_raise_value_error(call):
    # a float count or UE index is refused, not truncated, wrapped or left to
    # math.comb / Fraction / numpy indexing to fail with another type
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("L_prime, l, name", [(-1, 2, "L_prime"), (0, 1, "L_prime"), (3, -2, "l"), (3, 0, "l")])
def test_capacity_counts_must_be_positive(L_prime, l, name):
    # C(L'+l, l) would read -1 ones as a code for 0 users, and math.comb
    # would refuse a negative l with its own message
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        capacity(L_prime, l)


def test_codebook_matches_anti_diagonal_pattern():
    book = build_codebook(4, 3, 1)
    assert np.array_equal(book.columns, ANTI_DIAGONAL_4)
    assert book.dimension == 4 and book.user_count == 4


@pytest.mark.parametrize(
    "l_prime, l", [(1, 1), (3, 1), (2, 2), (5, 2), (4, 3), (6, 3), (3, 4), (20, 2), (8, 5)]
)
def test_codebook_matches_reverse_colex_enumeration(l_prime, l):
    # reference order: every l-subset of the rows, compared by its largest
    # element first, descending
    reference = sorted(
        combinations(range(l_prime + l), l), key=lambda s: s[::-1], reverse=True
    )
    book = build_codebook(len(reference), l_prime, l)
    assert [zero_set(book, k) for k in range(book.user_count)] == [
        frozenset(s) for s in reference
    ]


def test_codebook_single_column():
    book = build_codebook(1, 3, 1)
    assert book.columns.shape == (4, 1)
    assert book.columns.sum() == 3


def test_codebook_two_zero_enumeration():
    book = build_codebook(6, 2, 2)
    assert book.columns.shape == (4, 6)
    assert np.all(book.columns.sum(axis=0) == 2)
    zero_sets = {zero_set(book, k) for k in range(6)}
    assert zero_sets == {frozenset(s) for s in combinations(range(4), 2)}


def test_codebook_capacity_boundary():
    for l_prime, l in [(3, 1), (5, 2), (4, 3)]:
        cap = capacity(l_prime, l)
        build_codebook(cap, l_prime, l)  # boundary fits
        with pytest.raises(CapacityExceededError):
            build_codebook(cap + 1, l_prime, l)


def test_superpose_basics():
    book = build_codebook(4, 3, 1)
    assert np.array_equal(superpose([], book), np.zeros(4, dtype=np.uint8))
    for i in range(4):
        assert np.array_equal(superpose([i], book), book.columns[:, i])
    assert np.array_equal(superpose([0, 3], book), np.ones(4, dtype=np.uint8))
    for bad in ([-1], [4], [0, 7]):  # -1 would wrap to the last column
        with pytest.raises(ValueError):
            superpose(bad, book)


def test_decode_basic_outcomes():
    book = build_codebook(4, 3, 1)
    assert decode_energy_vector(np.zeros(4, dtype=np.uint8), book).kind == "empty"
    assert decode_energy_vector(np.ones(4, dtype=np.uint8), book).kind == "collision"
    out = decode_energy_vector(np.array([1, 1, 1, 0], dtype=np.uint8), book)
    assert out.kind == "identified" and out.ue_index == 0


def test_decode_invalid_patterns():
    # an in-range zero-set that belongs to no column, and too many zeros
    book = build_codebook(3, 3, 1)  # columns use rows 3, 2, 1; row 0 unused
    lone = np.ones(4, dtype=np.uint8)
    lone[0] = 0
    assert decode_energy_vector(lone, book).kind == "invalid"
    two = np.ones(4, dtype=np.uint8)
    two[:2] = 0
    assert decode_energy_vector(two, book).kind == "invalid"
    with pytest.raises(ValueError):
        decode_energy_vector(np.ones(5, dtype=np.uint8), book)


@pytest.mark.parametrize(
    "shape", [(2, 3), (6, 1), (5,), (7,), ()], ids=["2x3", "6x1", "5", "7", "0-D"]
)
def test_decode_reports_the_observed_shape(shape):
    # a (2, 3) array has as many entries as the 6 pilot dimensions: the
    # message gives its shape, where it once read "length 6, expected 6"
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (6,)")):
        decode_energy_vector(np.ones(shape), build_codebook(3, 4, 2))


@pytest.mark.parametrize(
    "observed", [[1, 1, 0.5, 1], [1, 1, 2, 0], [1, -1, 1, 1], [1, np.nan, 1, 0], [1, 1, 1, 256]]
)
def test_decode_rejects_non_binary_entries(observed):
    # a uint8 cast would read 0.5 as 0 and 256 as 0, and 2 as a high
    # energy, each decoding to a plausible outcome
    with pytest.raises(ValueError, match="0 or 1"):
        decode_energy_vector(np.array(observed), build_codebook(4, 3, 1))


def test_single_ue_round_trip_exhaustive():
    for l_prime, l in [(20, 1), (20, 2), (6, 3)]:
        book = build_codebook(capacity(l_prime, l), l_prime, l)
        for i in range(book.user_count):
            out = decode_energy_vector(superpose([i], book), book)
            assert out.kind == "identified" and out.ue_index == i


def test_pairs_always_collide():
    # distinct l-subsets overlap in at most l-1 rows, so any two columns
    # OR into a pattern with fewer than l zeros; check the overlap bound
    # exhaustively via the zero-indicator Gram matrix
    for l in (1, 2, 3):
        book = build_codebook(capacity(20, l), 20, l)
        Z = (book.columns == 0).astype(np.int64)
        overlap = Z.T @ Z
        np.fill_diagonal(overlap, 0)
        assert overlap.max() <= l - 1
    # and decode agrees on a direct sample of pairs
    book = build_codebook(21, 20, 1)
    for i, j in combinations(range(21), 2):
        assert decode_energy_vector(superpose([i, j], book), book).kind == "collision"


def test_code_efficiency_values():
    assert code_efficiency(20, 1) == Fraction(20, 21)
    assert code_efficiency(20, 2) == Fraction(10, 11)
    assert code_efficiency(1, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        code_efficiency(20, 0)


def test_codebook_rejects_malformed_columns():
    # no column has L' >= 1 ones and l >= 1 zeros, or there are not
    # user_count of the C(L'+l, l) zero patterns to hand out
    for ones, zeros, users in [(0, 2, 1), (2, 0, 1), (2, 2, -1)]:
        with pytest.raises(ValueError):
            PilotCodebook(ones_per_column=ones, zeros_per_column=zeros, user_count=users)
    with pytest.raises(CapacityExceededError, match="exceeds capacity"):
        PilotCodebook(ones_per_column=2, zeros_per_column=2, user_count=7)
    assert PilotCodebook(ones_per_column=2, zeros_per_column=2, user_count=0).columns.shape == (4, 0)


@pytest.mark.parametrize("ones, zeros", [(2.0, 1), (2, 1.0), (np.float64(2), 1)])
def test_codebook_rejects_fractional_counts(ones, zeros):
    # math.comb raised TypeError on these
    with pytest.raises(ValueError, match="must be an integer"):
        PilotCodebook(ones, zeros, 3)
    with pytest.raises(ValueError, match="must be an integer"):
        PilotCodebook(2, 1, 3.0)
    assert PilotCodebook(np.int64(2), np.int8(1), np.int16(3)).columns.shape == (3, 3)


def test_codebook_is_fixed_by_its_counts():
    # the three counts determine the columns, so books compare by them
    book = PilotCodebook(ones_per_column=20, zeros_per_column=2, user_count=231)
    assert book == build_codebook(231, 20, 2)
    assert np.array_equal(book.columns, build_codebook(231, 20, 2).columns)


def test_codebook_columns_are_read_only():
    # an in-place swap would decode UE 0 as UE 1, and a new count would
    # leave the columns of the old one
    book = build_codebook(6, 2, 2)
    with pytest.raises(ValueError):
        book.columns[:, [0, 1]] = book.columns[:, [1, 0]]
    with pytest.raises(AttributeError):
        book.user_count = 3
    with pytest.raises(AttributeError):
        book.columns = ANTI_DIAGONAL_4
    assert decode_energy_vector(superpose([0], book), book).ue_index == 0


@settings(max_examples=40, deadline=None)
@given(
    l_prime=st.integers(min_value=1, max_value=8),
    l=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_codebook_properties(l_prime, l, data):
    cap = capacity(l_prime, l)
    K = data.draw(st.integers(min_value=0, max_value=min(cap, 40)))
    book = build_codebook(K, l_prime, l)
    assert book.columns.shape == (l_prime + l, K)
    assert np.all(book.columns.sum(axis=0) == l_prime)
    assert len({zero_set(book, k) for k in range(K)}) == K  # distinct columns
    for k in range(K):
        out = decode_energy_vector(superpose([k], book), book)
        assert out.kind == "identified" and out.ue_index == k


def _rank(zero_rows, L, l):
    """Reverse-colex index of the l-subset with ascending rows `zero_rows`, in Python ints."""
    return math.comb(L, l) - 1 - sum(math.comb(c, i) for i, c in enumerate(zero_rows, start=1))


def _oracle_decode(pattern, book):
    """``(kind, ue_index)`` of one pattern by the rules, one row at a time."""
    zeros = [row for row, value in enumerate(pattern) if value == 0]
    if len(zeros) == book.dimension:
        return "empty", -1
    if len(zeros) < book.zeros_per_column:
        return "collision", -1
    if len(zeros) == book.zeros_per_column:
        k = _rank(zeros, book.dimension, book.zeros_per_column)
        if k < book.user_count:
            return "identified", k
    return "invalid", -1


@pytest.mark.parametrize(
    "l_prime, l, K", [(1, 1, 1), (3, 1, 2), (5, 2, 17), (6, 3, 80), (4, 4, 69), (9, 3, 219), (10, 2, 1)]
)
@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.float64])
def test_batch_decode_matches_the_oracle_on_every_pattern(l_prime, l, K, dtype):
    # every 0/1 pattern of the L <= 12 dimensions, with K below capacity so
    # that some l-zero patterns rank past the book and are invalid
    book = build_codebook(K, l_prime, l)
    patterns = np.array(list(product((0, 1), repeat=book.dimension)), dtype=dtype)
    kinds, ue_indices = decode_energy_vectors(patterns, book)
    expected = [_oracle_decode(pattern.tolist(), book) for pattern in patterns]
    assert list(zip(kinds.tolist(), ue_indices.tolist())) == expected
    assert ue_indices.dtype == np.int64
    for pattern in patterns[:: max(1, len(patterns) // 64)]:
        kind, ue_index = _oracle_decode(pattern.tolist(), book)
        out = decode_energy_vector(pattern, book)
        assert (out.kind, out.ue_index) == (kind, None if ue_index < 0 else ue_index)


def test_batch_decode_ranks_past_int64_exactly():
    # C(90, 30) is about 6.7e23, above 2**63: ranks are summed in Python ints
    book = build_codebook(5, 60, 30)
    assert math.comb(book.dimension, book.zeros_per_column) > 2**63
    rng = np.random.default_rng(0)
    drawn = np.ones((20, book.dimension), dtype=np.uint8)
    for row in drawn:
        row[rng.choice(book.dimension, size=30, replace=False)] = 0
    last = np.ones(book.dimension, dtype=np.uint8)
    last[:30] = 0  # rank 0 in colex: the last of all C(90, 30) columns
    patterns = np.vstack([book.columns.T, drawn, last])
    kinds, ue_indices = decode_energy_vectors(patterns, book)
    assert kinds[:5].tolist() == ["identified"] * 5
    assert ue_indices[:5].tolist() == list(range(5))
    assert list(zip(kinds.tolist(), ue_indices.tolist())) == [
        _oracle_decode(pattern.tolist(), book) for pattern in patterns
    ]
    assert kinds[-1] == "invalid"


@pytest.mark.parametrize("K, l_prime, l", [(30, 20, 50), (3, 1, 67)])
def test_batch_decode_when_only_mid_table_binomials_pass_int64(K, l_prime, l):
    # C(L, l) fits int64 but some C(c, i) with c < L, i <= l does not
    # (C(69, 34) ~ 2.8e19, C(67, 33) ~ 1.4e19): the decode stays exact
    book = build_codebook(K, l_prime, l)
    L = book.dimension
    assert math.comb(L, l) <= 2**63 - 1 < max(math.comb(c, i) for c in range(L) for i in range(l + 1))
    pairs = np.array(list(combinations(range(K), 2)))
    patterns = np.vstack([np.zeros(L, dtype=np.uint8), book.columns.T, superpose(pairs, book)])
    kinds, ue_indices = decode_energy_vectors(patterns, book)
    assert kinds[0] == "empty" and (kinds[K + 1 :] == "collision").all()
    assert kinds[1 : K + 1].tolist() == ["identified"] * K
    assert ue_indices[1 : K + 1].tolist() == list(range(K))
    assert decode_energy_vector(np.zeros(L), book).kind == "empty"


@pytest.mark.parametrize(
    "l_prime, l, K",
    [
        (20, 3, 0), (20, 3, 1771), (3, 1, 0), (3, 1, 4), (1, 67, 68),
        (20, 50, 30), (60, 30, 5), (1, 499, 0), (1, 499, 500),
    ],
)
def test_column_k_has_rank_k(l_prime, l, K):
    # enumerated columns against the rank formula, one column at a time,
    # from empty and full books to books whose C(L, l) passes 2**63
    book = build_codebook(K, l_prime, l)
    L = book.dimension
    assert book.columns.shape == (L, K)
    for k in range(K):
        zeros = np.flatnonzero(book.columns[:, k] == 0).tolist()
        assert len(zeros) == l and _rank(zeros, L, l) == k


def test_batch_decode_of_one_one_per_column():
    # l = 499 zeros beside one one: 499 binomials per rank, and the 500
    # patterns of 499 zeros rank all over [0, 500), past the 300-user book
    book = build_codebook(300, 1, 499)
    rng = np.random.default_rng(3)
    drawn = np.zeros((200, book.dimension), dtype=np.uint8)
    drawn[np.arange(200), rng.integers(0, book.dimension, size=200)] = 1
    patterns = np.vstack([book.columns.T, drawn])
    kinds, ue_indices = decode_energy_vectors(patterns, book)
    assert ue_indices[:300].tolist() == list(range(300))
    assert {"identified", "invalid"} <= set(kinds[300:].tolist())
    assert list(zip(kinds.tolist(), ue_indices.tolist())) == [
        _oracle_decode(pattern.tolist(), book) for pattern in patterns
    ]


@pytest.mark.parametrize(
    "observed, message",
    [
        (np.ones((2, 4), dtype=bool), "0 or 1"),
        (np.array([[1, 1, 2, 0]]), "0 or 1"),
        (np.array([[1, np.nan, 1, 0], [1, 1, 1, 0]]), "0 or 1"),
        (np.ones((2, 5)), re.escape("shape (2, 5), expected (n, 4)")),
        (np.ones((1, 2, 4)), re.escape("shape (1, 2, 4), expected (n, 4)")),
        (np.ones(4), re.escape("shape (4,), expected (n, 4)")),
    ],
    ids=["bool", "two", "nan", "wrong-width", "3-D", "1-D"],
)
def test_batch_decode_rejects_malformed_stacks(observed, message):
    with pytest.raises(ValueError, match=message):
        decode_energy_vectors(observed, build_codebook(4, 3, 1))


def test_batch_decode_of_no_patterns():
    kinds, ue_indices = decode_energy_vectors(np.ones((0, 4)), build_codebook(4, 3, 1))
    assert kinds.shape == ue_indices.shape == (0,)


def test_superpose_on_a_stack_matches_the_group_loop():
    book = build_codebook(80, 6, 3)
    groups = np.random.default_rng(1).integers(0, 80, size=(50, 3))
    stacked = superpose(groups, book)
    assert stacked.shape == (50, book.dimension) and stacked.dtype == np.uint8
    for group, pattern in zip(groups, stacked):
        assert np.array_equal(pattern, superpose(group.tolist(), book))
    assert superpose(np.empty((4, 0), dtype=int), book).tolist() == [[0] * 9] * 4
    for bad in (80, -1):  # out of range in the last row only
        with pytest.raises(ValueError, match=f"UE index {bad} is not in"):
            superpose(np.vstack([groups, [0, 1, bad]]), book)
    with pytest.raises(ValueError, match="must be an integer"):
        superpose(groups.astype(float), book)
    with pytest.raises(ValueError, match="1-D list or an"):
        superpose(groups[None], book)
    for mixed in ([True, 0], [[0, 1], [2, np.True_]]):  # numpy alone reads True as 1
        with pytest.raises(ValueError, match="UE index must be an integer, got (np.)?True"):
            superpose(mixed, book)


@pytest.mark.parametrize("block", [1, 5, 2**20])
def test_blocks_do_not_change_the_book_or_its_decode(block, monkeypatch):
    # one column or pattern per block, several, and all in one
    want = build_codebook(219, 9, 3)
    patterns = np.array(list(product((0, 1), repeat=want.dimension)), dtype=np.uint8)
    kinds, ue_indices = decode_energy_vectors(patterns, want)
    monkeypatch.setattr(pilots, "_BLOCK", block)
    book = build_codebook(219, 9, 3)
    assert np.array_equal(book.columns, want.columns)
    got = decode_energy_vectors(patterns, book)
    assert np.array_equal(got[0], kinds) and np.array_equal(got[1], ue_indices)


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codebook_memory_follows_the_book():
    # K = L = 2000 with l = 1999: the book is 4 MB, and K*l row and column
    # indices at once took 17 times that
    book, peak = _peak(lambda: build_codebook(2000, 1, 1999))
    assert book.columns.nbytes == 2000 * 2000
    assert peak <= 1.25 * book.columns.nbytes


def test_decode_memory_follows_the_patterns():
    # codebook-verify's singles at K = 500, l = 499: 500 exact rows, whose
    # zero rows and binomials at once took 26 times the patterns' bytes; the
    # 0/1 checks take two pattern-sized masks, and the rank blocks the rest
    book = build_codebook(500, 1, 499)
    patterns = np.vstack([np.zeros(book.dimension, dtype=np.uint8), book.columns.T])
    (kinds, ue_indices), peak = _peak(lambda: decode_energy_vectors(patterns, book))
    assert kinds[0] == "empty" and (kinds[1:] == "identified").all()
    assert ue_indices[1:].tolist() == list(range(500))
    assert peak <= 4 * patterns.nbytes
