"""Unit tests for repro.utils."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.utils import (
    chunks,
    is_power_of_two,
    log2_exact,
    round_half_away,
)


class TestIsPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, -2, 3, 5, 6, 7, 9, 12, 1000):
            assert not is_power_of_two(value)


class TestLog2Exact:
    def test_exact_values(self):
        assert log2_exact(1) == 0
        assert log2_exact(4096) == 12

    def test_rejects_non_power(self):
        with pytest.raises(ParameterError):
            log2_exact(12)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            log2_exact(0)


class TestRoundHalfAway:
    def test_exact(self):
        assert round_half_away(10, 5) == 2

    def test_rounds_nearest(self):
        assert round_half_away(7, 5) == 1
        assert round_half_away(8, 5) == 2

    def test_half_rounds_away_positive(self):
        assert round_half_away(5, 2) == 3  # 2.5 -> 3

    def test_half_rounds_away_negative(self):
        assert round_half_away(-5, 2) == -3  # -2.5 -> -3

    def test_negative_values(self):
        assert round_half_away(-7, 5) == -1
        assert round_half_away(-8, 5) == -2

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            round_half_away(1, 0)

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**6))
    def test_matches_rational_rounding(self, numerator, denominator):
        result = round_half_away(numerator, denominator)
        # |numerator - result*denominator| <= denominator/2 and the
        # result is within 1 of the true quotient.
        assert abs(numerator - result * denominator) * 2 <= denominator


class TestChunks:
    def test_exact_split(self):
        assert chunks(100, 25) == [25, 25, 25, 25]

    def test_remainder(self):
        assert chunks(100, 30) == [30, 30, 30, 10]

    def test_single_chunk(self):
        assert chunks(10, 100) == [10]

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            chunks(10, 0)

    @given(st.integers(1, 10**6), st.integers(1, 10**4))
    def test_conserves_total(self, total, size):
        pieces = chunks(total, size)
        assert sum(pieces) == total
        assert all(0 < piece <= size for piece in pieces)
