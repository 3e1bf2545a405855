import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspilot.pilots import (
    CapacityExceededError,
    PilotCodebook,
    build_codebook,
    capacity,
    choose_l,
    code_efficiency,
    decode_energy_vector,
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
