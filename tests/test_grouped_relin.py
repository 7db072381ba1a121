"""Tests for grouped RNS relinearisation and the Table V validation.

The headline finding (documented in EXPERIMENTS.md): the paper's Table V
scaling rule implicitly assumes the relinearisation component count stays
constant as the basis grows. With naive per-prime digits the simulated
(2^13, 360-bit) Mult grows 3.6x; with 60-bit grouped digits it lands on
the paper's 9.68 ms estimate almost exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.hw.config import HardwareConfig
from repro.hw.coprocessor import Coprocessor
from repro.nttmath.ntt import negacyclic_convolution
from repro.params import table5_large
from repro.rns.basis import basis_for
from repro.rns.decompose import (
    grouped_reconstruction_weights,
    grouped_rns_digits,
    prime_groups,
)


class TestGroupedDecomposition:
    @pytest.fixture(scope="class")
    def basis(self, mini_params):
        return basis_for(mini_params.q_primes)

    def test_prime_groups_partition(self):
        groups = prime_groups(6, 2)
        assert groups == [(0, 1), (2, 3), (4, 5)]
        assert prime_groups(5, 2) == [(0, 1), (2, 3), (4,)]

    def test_prime_groups_validation(self):
        with pytest.raises(ParameterError):
            prime_groups(6, 0)

    def test_reconstruction_identity(self, basis, rng):
        """sum_j [a]_{Q_j} * w_j ≡ a (mod q) for the key weights."""
        weights = grouped_reconstruction_weights(basis, 2)
        groups = prime_groups(basis.size, 2)
        for _ in range(50):
            value = int.from_bytes(rng.bytes(16), "little") % basis.modulus
            total = 0
            for group, weight in zip(groups, weights, strict=True):
                modulus = 1
                for i in group:
                    modulus *= basis.primes[i]
                total += (value % modulus) * weight
            assert total % basis.modulus == value

    def test_digits_reconstruct_residues(self, basis, rng):
        n = 16
        residues = np.stack([
            rng.integers(0, p, n) for p in basis.primes
        ]).astype(np.int64)
        digits = grouped_rns_digits(basis, residues, 2)
        weights = grouped_reconstruction_weights(basis, 2)
        acc = np.zeros_like(residues)
        for j, weight in enumerate(weights):
            weight_col = np.array(
                [weight % p for p in basis.primes], dtype=np.int64
            )[:, None]
            acc = (acc + digits[j] * weight_col) % basis.primes_col
        assert np.array_equal(acc, residues)

    def test_digit_count(self, basis):
        assert grouped_rns_digits(
            basis, np.zeros((basis.size, 4), dtype=np.int64), 2
        ).shape[0] == -(-basis.size // 2)

    def test_group_of_one_equals_raw_digits(self, basis, rng):
        """group_size=1 degenerates to the per-prime raw-residue digits."""
        n = 8
        residues = np.stack([
            rng.integers(0, p, n) for p in basis.primes
        ]).astype(np.int64)
        digits = grouped_rns_digits(basis, residues, 1)
        for i in range(basis.size):
            expected = residues[i][None, :] % basis.primes_col
            assert np.array_equal(digits[i], expected)

    def test_rejects_wrong_shape(self, basis):
        with pytest.raises(ParameterError):
            grouped_rns_digits(basis, np.zeros((2, 4), dtype=np.int64), 2)


class TestGroupedRelinearisation:
    def test_sw_grouped_relin_correct(self, toy_context, toy_keys, rng):
        params = toy_context.params
        grouped = toy_context.relin_keygen_grouped(toy_keys.secret, 2)
        evaluator = Evaluator(toy_context)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        relined = evaluator.relinearize_grouped(raw, grouped)
        expected = negacyclic_convolution(
            a.coeffs.tolist(), b.coeffs.tolist(), params.t
        )
        assert toy_context.decrypt(
            relined, toy_keys.secret
        ).coeffs.tolist() == expected

    def test_hw_grouped_relin_bit_exact(self, mini_context, mini_keys,
                                        rng):
        params = mini_context.params
        grouped = mini_context.relin_keygen_grouped(mini_keys.secret, 2)
        evaluator = Evaluator(mini_context)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = mini_context.encrypt(a, mini_keys.public)
        sw = evaluator.relinearize_grouped(
            evaluator.multiply_raw(ct, ct), grouped
        ).to_coeff()
        hw, report = Coprocessor(params).mult(ct, ct, grouped)
        assert np.array_equal(hw.c0.residues, sw.c0.residues)
        assert np.array_equal(hw.c1.residues, sw.c1.residues)

    def test_component_count_halved(self, mini_context, mini_keys):
        grouped = mini_context.relin_keygen_grouped(mini_keys.secret, 2)
        assert grouped.num_components == \
            -(-mini_context.params.k_q // 2)

    def test_fewer_key_loads_fewer_cycles(self, mini_context, mini_keys,
                                          rng):
        """The grouped key halves relin NTTs, products, and streaming."""
        params = mini_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = mini_context.encrypt(a, mini_keys.public)
        coprocessor = Coprocessor(params)
        _, report_rns = coprocessor.mult(ct, ct, mini_keys.relin)
        grouped = mini_context.relin_keygen_grouped(mini_keys.secret, 2)
        _, report_grouped = coprocessor.mult(ct, ct, grouped)
        assert report_grouped.total_cycles < report_rns.total_cycles
        assert report_grouped.transfer_cycles < report_rns.transfer_cycles

    def test_grouped_noise_larger_but_bounded(self, toy_context, toy_keys,
                                              rng):
        """60-bit digits add more noise than 30-bit ones but stay far
        below threshold (the classic digit-size trade-off)."""
        from repro.fv.noise import noise_of

        params = toy_context.params
        grouped = toy_context.relin_keygen_grouped(toy_keys.secret, 2)
        evaluator = Evaluator(toy_context)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(a, toy_keys.public)
        raw = evaluator.multiply_raw(ct, ct)
        fine = evaluator.relinearize(raw, toy_keys.relin)
        coarse = evaluator.relinearize_grouped(raw, grouped)
        assert noise_of(toy_context, coarse, toy_keys.secret) \
            < params.q // (2 * params.t)
        # Both decrypt identically.
        assert toy_context.decrypt(fine, toy_keys.secret) == \
            toy_context.decrypt(coarse, toy_keys.secret)


@pytest.mark.slow
class TestTable5DirectValidation:
    """Execute the paper's second Table V point instead of extrapolating."""

    @pytest.fixture(scope="class")
    def large_setup(self):
        params = table5_large()
        context = FvContext(params, seed=3)
        keys = context.keygen()
        grouped = context.relin_keygen_grouped(keys.secret, 2)
        config = replace(HardwareConfig(), num_rpaus=13, lift_cores=4,
                         scale_cores=4)
        return params, context, keys, grouped, config

    @pytest.fixture(scope="class")
    def grouped_mult(self, large_setup):
        params, context, keys, grouped, config = large_setup
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        ct = context.encrypt(plain, keys.public)
        return Coprocessor(params, config).mult(ct, ct, grouped)

    def test_simulated_mult_matches_paper_estimate(self, large_setup,
                                                   grouped_mult):
        """Paper Table V row 2: 9.68 ms computation — within 5%."""
        _, context, keys, _, _ = large_setup
        result, report = grouped_mult
        assert abs(report.seconds - 9.68e-3) / 9.68e-3 < 0.05
        decrypted = context.decrypt(result, keys.secret)
        assert decrypted.coeffs[0] == 1 and decrypted.coeffs[2] == 1

    def test_per_prime_digits_break_the_scaling_model(self, large_setup,
                                                      grouped_mult):
        """With naive per-prime digits the same point exceeds 13 ms,
        over 1.3x the grouped Mult — the scaling rule implicitly assumes
        grouped digits."""
        params, context, keys, grouped, config = large_setup
        plain = Plaintext.from_list([1], params.n, params.t)
        ct = context.encrypt(plain, keys.public)
        _, report = Coprocessor(params, config).mult(ct, ct, keys.relin)
        assert report.seconds > 13e-3
        assert report.seconds > 1.3 * grouped_mult[1].seconds