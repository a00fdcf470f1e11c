"""exact_row_sums against math.fsum, compared bit for bit (signed zeros count)."""

import math
import random
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import g2theta.theta as theta
from g2theta.errors import TruncationOverflow
from g2theta.theta import exact_row_sums


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_matches_fsum(rows):
    got = exact_row_sums(np.array(rows, dtype=np.float64))
    for row, value in zip(rows, got.tolist()):
        assert _bits(value) == _bits(math.fsum(row)), (row, value, math.fsum(row))


# a double m * 2^e with |m| < 2^53, so every value is exact, from 2^-1074 up
# to (not including) 2^900
def _doubles(lo=-1074, hi=900 - 53):
    return st.builds(
        math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(lo, hi)
    )


@st.composite
def _rows(draw):
    """Up to four rows of one length (1 to 200); exponents span [lo, hi].

    Hypothesis picks the shape, the exponent range and a seed; the terms come
    from a seeded generator, which keeps long rows cheap to draw.
    """
    length = draw(st.integers(1, 200))
    count = draw(st.integers(1, 4))
    lo = draw(st.integers(-1074, 900 - 53))
    hi = draw(st.integers(lo, 900 - 53))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    mant = rng.integers(-(2**53) + 1, 2**53, size=(count, length))
    expo = rng.integers(lo, hi + 1, size=(count, length))
    return np.ldexp(mant.astype(np.float64), expo).tolist()


@st.composite
def _cancelling_rows(draw):
    """x, -x and a few small terms, shuffled: the sum is tiny against max|x|."""
    xs = draw(st.lists(_doubles(), min_size=1, max_size=90))
    extra = draw(st.lists(_doubles(-1074, 0), max_size=10))
    row = xs + [-x for x in xs] + extra
    random.Random(draw(st.integers(0, 2**32))).shuffle(row)
    return row


@st.composite
def _tie_rows(draw):
    """x plus exactly half an ulp of x (split into parts), maybe nudged."""
    x = draw(_doubles(-1000, 800))
    if x == 0.0:
        x = 1.0
    half_ulp = math.ulp(x) / 2 * draw(st.sampled_from([1.0, -1.0]))
    parts = draw(st.sampled_from([1, 2, 4]))
    row = [x] + [half_ulp / parts] * parts
    if draw(st.booleans()):
        row.append(half_ulp * 2.0**-40 * draw(st.sampled_from([1.0, -1.0])))
    return row


@st.composite
def _power_of_two_rows(draw):
    """Rows summing to, or to within a quarter ulp of, a power of two."""
    k = draw(st.integers(-1000, 890))
    power = math.ldexp(1.0, k)
    sign = draw(st.sampled_from([1.0, -1.0]))
    split = draw(st.integers(1, 2**52 - 1))
    row = [sign * math.ldexp(split, k - 52), sign * (power - math.ldexp(split, k - 52))]
    # nudge below the power of two, where the gap to the neighbour halves
    nudge = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    if nudge:
        row.append(-sign * nudge * math.ldexp(1.0, k - 53))
    return row


@settings(max_examples=300, deadline=None)
@given(_rows())
def test_rows_match_fsum(rows):
    _assert_matches_fsum(rows)


@settings(max_examples=200, deadline=None)
@given(_cancelling_rows())
def test_heavy_cancellation_matches_fsum(row):
    _assert_matches_fsum([row])


@settings(max_examples=200, deadline=None)
@given(_tie_rows())
def test_half_ulp_ties_match_fsum(row):
    _assert_matches_fsum([row])


@settings(max_examples=200, deadline=None)
@given(_power_of_two_rows())
def test_power_of_two_sums_match_fsum(row):
    _assert_matches_fsum([row])


@pytest.mark.parametrize("length", [1, 2, 81, 200])
def test_zero_rows_match_fsum(length):
    _assert_matches_fsum([
        [0.0] * length,
        [-0.0] * length,
        [(-0.0 if i % 2 else 0.0) for i in range(length)],
    ])


def test_subnormal_and_extreme_rows_match_fsum():
    tiny = math.ldexp(1.0, -1074)
    for row in (
        [tiny] * 7,
        [tiny, -tiny, tiny],
        [math.ldexp(1.0, -1022), -tiny],
        [math.ldexp(1.0, 899), math.ldexp(1.0, 846), 1.0],
        [math.ldexp(1.0, 900), -math.ldexp(1.0, 900), 3.0],  # summed by math.fsum
    ):
        _assert_matches_fsum([row])


def _count_fallbacks(monkeypatch):
    calls = []
    original = theta._fsum

    def counted(row):
        calls.append(row)
        return original(row)

    monkeypatch.setattr(theta, "_fsum", counted)
    return calls


def test_ordinary_rows_need_no_fallback(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    rows = np.random.default_rng(0).standard_normal((64, 121))
    _assert_matches_fsum(rows.tolist())
    assert calls == []


def test_cancelling_rows_are_settled_on_a_finer_grid():
    # sums far below max|x|, like the odd theta nulls: the split cannot
    # settle them, so math.fsum sums them
    rows = [[1.0, 1e-30, -1.0], [0.75, -(2.0**-60), -0.75 + 2.0**-55]]
    _assert_matches_fsum(rows)


def test_near_ties_fall_back_to_fsum(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    rows = [
        # an exact half-ulp tie
        [1.0, 2.0**-53, 0.0],
        # hi parts sum to 1, the rounded lo sum sits on the tie below 1 and
        # its lost 2^-110 rounds the true sum down: only the halved gap under
        # a power of two keeps this row from being accepted as 1.0
        [0.5, 0.5 - 2.0**-54, -(2.0**-110)],
    ]
    _assert_matches_fsum(rows)
    # each goes to math.fsum once, as the row of its hi sum and lo parts
    assert [math.fsum(row) for row in calls] == [math.fsum(row) for row in rows]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_term_raises_truncation_overflow(bad):
    with pytest.raises(TruncationOverflow):
        exact_row_sums(np.array([[1.0, 2.0], [3.0, bad]]))


def test_sum_beyond_double_range_raises_truncation_overflow():
    big = math.ldexp(1.0, 1023)
    with pytest.raises(TruncationOverflow):
        exact_row_sums(np.array([[big, big]]))
