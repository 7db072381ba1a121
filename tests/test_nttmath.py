"""Tests for the number-theoretic substrate (primes, NTT, bit reversal)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.nttmath.bitrev import (
    bit_reverse_indices,
    bit_reverse_permute,
)
from repro.nttmath.modmath import modinv, modpow
from repro.nttmath.ntt import (
    NegacyclicTransformer,
    intt_iterative,
    negacyclic_convolution,
    ntt_iterative,
    stage_twiddles,
)
from repro.nttmath.primes import (
    find_ntt_primes,
    is_prime,
    primitive_root,
    root_of_unity,
)

PRIME = find_ntt_primes(30, 64, 1)[0]


class TestModMath:
    def test_modpow(self):
        assert modpow(2, 10, 1000) == 24

    def test_modinv(self):
        inverse = modinv(7, PRIME)
        assert (7 * inverse) % PRIME == 1

    def test_modinv_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            modinv(6, 12)

    @given(st.integers(1, 10**9))
    def test_modinv_property(self, value):
        if value % PRIME == 0:
            return
        assert (value * modinv(value, PRIME)) % PRIME == 1


class TestPrimes:
    def test_small_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 97, 65537]
        assert all(is_prime(p) for p in primes)

    def test_small_composites(self):
        composites = [0, 1, 4, 9, 91, 561, 65535, 2 ** 31 - 3]
        assert not any(is_prime(c) for c in composites)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(carmichael)

    def test_find_ntt_primes_properties(self):
        primes = find_ntt_primes(30, 4096, 13)
        assert len(set(primes)) == 13
        for p in primes:
            assert p.bit_length() == 30
            assert (p - 1) % 8192 == 0
            assert is_prime(p)

    def test_find_ntt_primes_descending(self):
        primes = find_ntt_primes(30, 4096, 5)
        assert primes == sorted(primes, reverse=True)

    def test_find_ntt_primes_rejects_impossible(self):
        with pytest.raises(ParameterError):
            find_ntt_primes(10, 4096, 1)

    def test_primitive_root(self):
        for p in (5, 7, 13, PRIME):
            g = primitive_root(p)
            # Check order by factor test instead of enumeration for PRIME.
            assert modpow(g, p - 1, p) == 1
            assert modpow(g, (p - 1) // 2, p) != 1

    def test_root_of_unity_order(self):
        for order in (2, 4, 64, 128):
            w = root_of_unity(order, PRIME)
            assert modpow(w, order, PRIME) == 1
            assert modpow(w, order // 2, PRIME) != 1

    def test_root_of_unity_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            root_of_unity(3, PRIME)  # 3 does not divide PRIME - 1


class TestBitReverse:
    def test_indices_are_permutation(self):
        indices = bit_reverse_indices(64)
        assert sorted(indices.tolist()) == list(range(64))

    def test_permute_roundtrip_array(self, rng):
        values = rng.integers(0, 100, 32)
        twice = bit_reverse_permute(bit_reverse_permute(values))
        assert np.array_equal(twice, values)

    def test_permute_list(self):
        assert bit_reverse_permute([0, 1, 2, 3]) == [0, 2, 1, 3]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            bit_reverse_permute([1, 2, 3])


class TestIterativeNtt:
    """Paper Alg. 1 reference implementation."""

    def test_roundtrip(self, rng):
        n = 64
        w = root_of_unity(n, PRIME)
        coeffs = rng.integers(0, PRIME, n).tolist()
        assert intt_iterative(ntt_iterative(coeffs, PRIME, w), PRIME, w) \
            == [c % PRIME for c in coeffs]

    def test_constant_polynomial(self):
        n = 16
        w = root_of_unity(n, PRIME)
        # NTT of a constant is that constant in every evaluation point.
        assert ntt_iterative([5] + [0] * (n - 1), PRIME, w) == [5] * n

    def test_linearity(self, rng):
        n = 32
        w = root_of_unity(n, PRIME)
        a = rng.integers(0, PRIME, n).tolist()
        b = rng.integers(0, PRIME, n).tolist()
        sum_transform = ntt_iterative(
            [(x + y) % PRIME for x, y in zip(a, b, strict=True)], PRIME, w
        )
        transform_sum = [
            (x + y) % PRIME
            for x, y in zip(ntt_iterative(a, PRIME, w),
                            ntt_iterative(b, PRIME, w), strict=True)
        ]
        assert sum_transform == transform_sum

    def test_cyclic_convolution_theorem(self, rng):
        n = 16
        w = root_of_unity(n, PRIME)
        a = rng.integers(0, PRIME, n).tolist()
        b = rng.integers(0, PRIME, n).tolist()
        pointwise = [
            (x * y) % PRIME
            for x, y in zip(ntt_iterative(a, PRIME, w),
                            ntt_iterative(b, PRIME, w), strict=True)
        ]
        via_ntt = intt_iterative(pointwise, PRIME, w)
        # Cyclic (not negacyclic) convolution reference.
        direct = [0] * n
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                direct[(i + j) % n] = (direct[(i + j) % n] + ai * bj) % PRIME
        assert via_ntt == direct


class TestStageTwiddles:
    def test_table_sizes(self):
        w = root_of_unity(64, PRIME)
        tables = stage_twiddles(64, PRIME, w)
        assert [len(t) for t in tables] == [1, 2, 4, 8, 16, 32]

    def test_first_twiddle_is_one(self):
        w = root_of_unity(64, PRIME)
        for table in stage_twiddles(64, PRIME, w):
            assert table[0] == 1


class TestNegacyclicTransformer:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_roundtrip(self, n, rng):
        primes = find_ntt_primes(30, n, 1)
        tr = NegacyclicTransformer(n, primes[0])
        values = rng.integers(0, primes[0], n)
        assert np.array_equal(tr.inverse(tr.forward(values)),
                              values % primes[0])

    def test_multiply_matches_schoolbook(self, rng):
        n = 32
        prime = find_ntt_primes(30, n, 1)[0]
        tr = NegacyclicTransformer(n, prime)
        a = rng.integers(0, prime, n)
        b = rng.integers(0, prime, n)
        assert tr.multiply(a, b).tolist() == negacyclic_convolution(
            a.tolist(), b.tolist(), prime
        )

    def test_negacyclic_wraparound_sign(self):
        # x^(n-1) * x = x^n = -1 in the negacyclic ring.
        n = 8
        prime = find_ntt_primes(30, n, 1)[0]
        tr = NegacyclicTransformer(n, prime)
        a = np.zeros(n, dtype=np.int64)
        a[n - 1] = 1
        b = np.zeros(n, dtype=np.int64)
        b[1] = 1
        product = tr.multiply(a, b)
        assert product[0] == prime - 1
        assert np.all(product[1:] == 0)

    def test_matches_iterative_reference(self, rng):
        n = 64
        prime = PRIME
        tr = NegacyclicTransformer(n, prime)
        values = rng.integers(0, prime, n)
        scaled = [(int(v) * int(p)) % prime
                  for v, p in zip(values, tr.psi_powers, strict=True)]
        reference = ntt_iterative(scaled, prime, tr.omega)
        assert tr.forward(values).tolist() == reference

    def test_rejects_wide_modulus(self):
        with pytest.raises(ParameterError):
            NegacyclicTransformer(64, (1 << 33) + 1)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ParameterError):
            NegacyclicTransformer(64, 97)  # 96 not divisible by 128

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**30 - 1), st.integers(0, 63))
    def test_monomial_products(self, coefficient, degree):
        """Multiplying by x^d rotates with sign flip (property check)."""
        n = 64
        tr = NegacyclicTransformer(n, PRIME)
        a = np.zeros(n, dtype=np.int64)
        a[degree] = coefficient % PRIME
        b = np.zeros(n, dtype=np.int64)
        b[n - 1] = 1
        product = tr.multiply(a, b)
        expected = np.zeros(n, dtype=np.int64)
        target = (degree + n - 1) % n
        sign = 1 if degree + n - 1 < n else -1
        expected[target] = (sign * coefficient) % PRIME
        assert np.array_equal(product, expected)
