"""Tests for the low-level circuit models: reduction, multiplier, butterfly
(paper Fig. 4 and Sec. V-A4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareModelError, ParameterError
from repro.hw.butterfly import ButterflyCore
from repro.hw.config import HardwareConfig
from repro.hw.datapath import ModAddSub, PipelinedMultiplier
from repro.hw.modred import SlidingWindowReducer
from repro.params import hpca19

PRIMES = hpca19().q_primes + hpca19().p_primes
CONFIG = HardwareConfig()


class TestSlidingWindowReducer:
    @pytest.mark.parametrize("prime", PRIMES[:4])
    def test_random_60bit_inputs(self, prime, rng):
        reducer = SlidingWindowReducer(prime)
        for _ in range(500):
            value = int(rng.integers(0, 1 << 60))
            assert reducer.reduce(value) == value % prime

    def test_worst_case_inputs(self):
        prime = PRIMES[0]
        reducer = SlidingWindowReducer(prime)
        for value in (0, 1, prime - 1, prime, 2 * prime,
                      (1 << 60) - 1, (prime - 1) ** 2):
            assert reducer.reduce(value) == value % prime

    def test_products_of_residues(self, rng):
        """The actual butterfly usage: products of two 30-bit residues."""
        prime = PRIMES[1]
        reducer = SlidingWindowReducer(prime)
        for _ in range(500):
            a = int(rng.integers(0, prime))
            b = int(rng.integers(0, prime))
            assert reducer.reduce(a * b) == (a * b) % prime

    def test_table_contents(self):
        prime = PRIMES[0]
        reducer = SlidingWindowReducer(prime, window_bits=6)
        assert len(reducer.table) == 64
        for w in range(64):
            assert reducer.table[w] == (w << 30) % prime

    def test_paper_structure(self):
        """6-bit window over a 60-bit operand: 5 steps + correction."""
        reducer = SlidingWindowReducer(PRIMES[0], window_bits=6)
        assert reducer.steps == 5
        assert reducer.pipeline_stages == 6

    def test_window_size_tradeoff(self):
        """Wider windows need fewer steps but bigger tables."""
        narrow = SlidingWindowReducer(PRIMES[0], window_bits=4)
        wide = SlidingWindowReducer(PRIMES[0], window_bits=8)
        assert narrow.steps > wide.steps
        assert len(narrow.table) < len(wide.table)

    def test_rejects_wide_modulus(self):
        with pytest.raises(ParameterError):
            SlidingWindowReducer(1 << 31)

    def test_rejects_out_of_range_operand(self):
        reducer = SlidingWindowReducer(PRIMES[0])
        with pytest.raises(HardwareModelError):
            reducer.reduce(1 << 61)
        with pytest.raises(HardwareModelError):
            reducer.reduce(-1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << 60) - 1))
    def test_matches_modulo_property(self, value):
        reducer = SlidingWindowReducer(PRIMES[2])
        assert reducer.reduce(value) == value % PRIMES[2]


class TestPipelinedMultiplier:
    def test_product(self):
        mult = PipelinedMultiplier(stages=4)
        assert mult.multiply(12345, 67890) == 12345 * 67890

    def test_rejects_oversized_operands(self):
        mult = PipelinedMultiplier(stages=4)
        with pytest.raises(HardwareModelError):
            mult.multiply(1 << 30, 2)

    def test_latency(self):
        assert PipelinedMultiplier(stages=4).latency == 4


class TestModAddSub:
    def test_add_with_correction(self):
        unit = ModAddSub(stages=1)
        prime = PRIMES[0]
        assert unit.add(prime - 1, 5, prime) == 4
        assert unit.add(1, 2, prime) == 3

    def test_sub_with_correction(self):
        unit = ModAddSub(stages=1)
        prime = PRIMES[0]
        assert unit.sub(3, 5, prime) == prime - 2
        assert unit.sub(5, 3, prime) == 2


class TestButterflyCore:
    @pytest.fixture(scope="class")
    def core(self):
        return ButterflyCore(PRIMES[0], CONFIG)

    def test_butterfly_equation(self, core, rng):
        prime = PRIMES[0]
        for _ in range(200):
            u = int(rng.integers(0, prime))
            t = int(rng.integers(0, prime))
            w = int(rng.integers(0, prime))
            hi, lo = core.compute(u, t, w)
            assert hi == (u + w * t) % prime
            assert lo == (u - w * t) % prime

    def test_pipeline_depth_composition(self, core):
        expected = (CONFIG.multiplier_stages
                    + core.reducer.pipeline_stages
                    + CONFIG.addsub_stages)
        assert core.pipeline_depth == expected
