"""Tests for the polynomial layers (dense, RNS)."""

import numpy as np
import pytest


from repro.errors import ParameterError
from repro.nttmath.ntt import negacyclic_convolution
from repro.poly.dense import IntPoly
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import basis_for
from scaffolding import residues_of_coeffs

N = 16
MODULUS = 2 ** 61 - 1  # big modulus: IntPoly must stay exact


def _poly(basis, coeffs) -> RnsPoly:
    return RnsPoly(basis, residues_of_coeffs(basis, coeffs))


def random_intpoly(rng, n=N, modulus=MODULUS):
    return IntPoly(tuple(int(x) for x in rng.integers(0, 2**60, n)), modulus)


class TestIntPoly:
    def test_construction_reduces(self):
        poly = IntPoly((MODULUS + 3, -1), MODULUS)
        assert poly.coeffs == (3, MODULUS - 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ParameterError):
            IntPoly((1, 2, 3), MODULUS)

    def test_add_sub_roundtrip(self, rng):
        a, b = random_intpoly(rng), random_intpoly(rng)
        assert (a + b) - b == a

    def test_neg(self, rng):
        a = random_intpoly(rng)
        assert a + (-a) == IntPoly((0,) * a.n, a.modulus)

    def test_mul_matches_convolution(self, rng):
        a, b = random_intpoly(rng), random_intpoly(rng)
        expected = negacyclic_convolution(
            list(a.coeffs), list(b.coeffs), MODULUS
        )
        assert list((a * b).coeffs) == expected

    def test_mul_commutative(self, rng):
        a, b = random_intpoly(rng), random_intpoly(rng)
        assert a * b == b * a

    def test_mul_distributive(self, rng):
        a, b, c = (random_intpoly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c

    def test_scalar_mul(self, rng):
        a = random_intpoly(rng)
        assert a.scalar_mul(3) == a + a + a

    def test_centered_bounds(self, rng):
        a = random_intpoly(rng)
        for value in a.centered():
            assert -MODULUS // 2 <= value <= MODULUS // 2

    def test_lift_preserves_centered_value(self, rng):
        a = random_intpoly(rng)
        lifted = a.lift_to(MODULUS * 1000)
        assert lifted.centered() == a.centered()

    def test_lift_rejects_smaller_modulus(self, rng):
        with pytest.raises(ParameterError):
            random_intpoly(rng).lift_to(17)

    def test_scale_round_exact_multiples(self):
        # scale by t/q where coefficients are exact multiples: no rounding.
        poly = IntPoly((100, 200, 0, 0), 10**6)
        scaled = poly.scale_round(1, 100, 10**6)
        assert scaled.coeffs[:2] == (1, 2)

    def test_scale_round_uses_centered_rep(self):
        # -100 (stored as modulus-100) should scale to -1, not huge.
        poly = IntPoly((10**6 - 100, 0, 0, 0), 10**6)
        scaled = poly.scale_round(1, 100, 10**6)
        assert scaled.centered()[0] == -1

    def test_associativity(self, rng):
        a, b, c = (random_intpoly(rng, n=8) for _ in range(3))
        assert (a * b) * c == a * (b * c)


class TestRnsPoly:
    @pytest.fixture(scope="class")
    def basis(self, toy_params):
        return basis_for(toy_params.q_primes)

    def test_int_coeff_roundtrip(self, basis, toy_params, rng):
        coeffs = [
            int.from_bytes(rng.bytes(12), "little") % basis.modulus
            for _ in range(toy_params.n)
        ]
        poly = _poly(basis, coeffs)
        assert poly.to_int_coeffs() == coeffs

    def test_add_matches_bigint(self, basis, toy_params, rng):
        a_ints = [int(x) for x in rng.integers(0, 2**60, toy_params.n)]
        b_ints = [int(x) for x in rng.integers(0, 2**60, toy_params.n)]
        a = _poly(basis, a_ints)
        b = _poly(basis, b_ints)
        expected = [(x + y) % basis.modulus
                    for x, y in zip(a_ints, b_ints, strict=True)]
        assert (a + b).to_int_coeffs() == expected

    def test_multiply_matches_bigint(self, basis, toy_params, rng):
        a_ints = [int(x) for x in rng.integers(0, 2**50, toy_params.n)]
        b_ints = [int(x) for x in rng.integers(0, 2**50, toy_params.n)]
        a = _poly(basis, a_ints)
        b = _poly(basis, b_ints)
        expected = negacyclic_convolution(a_ints, b_ints, basis.modulus)
        assert a.multiply(b).to_int_coeffs() == expected

    def test_ntt_domain_roundtrip(self, basis, toy_params, rng):
        a = _poly(basis, rng.integers(0, 1000, toy_params.n))
        assert np.array_equal(a.to_ntt().to_coeff().residues, a.residues)

    def test_domain_mixing_rejected(self, basis, toy_params, rng):
        a = _poly(basis, rng.integers(0, 1000, toy_params.n))
        with pytest.raises(ParameterError):
            _ = a + a.to_ntt()

    def test_to_int_requires_coeff_domain(self, basis, toy_params, rng):
        a = _poly(basis, rng.integers(0, 1000, toy_params.n))
        with pytest.raises(ParameterError):
            a.to_ntt().to_int_coeffs()

    def test_scalar_mul(self, basis, toy_params):
        ints = [1] * toy_params.n
        a = _poly(basis, ints)
        assert a.scalar_mul(7).to_int_coeffs() == [7] * toy_params.n

    def test_ntt_multiply_consistency(self, basis, toy_params, rng):
        """NTT-domain pointwise product == coefficient-domain multiply."""
        a = _poly(basis, rng.integers(0, 1000, toy_params.n))
        b = _poly(basis, rng.integers(0, 1000, toy_params.n))
        product = a.to_ntt().residues * b.to_ntt().residues
        via_ntt = RnsPoly(basis, product, ntt_domain=True).to_coeff()
        direct = a.multiply(b)
        assert np.array_equal(via_ntt.residues, direct.residues)
