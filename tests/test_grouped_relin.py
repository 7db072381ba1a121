"""Tests for grouped RNS relinearisation and the Table V validation.

The finding these tests pin: the paper's Table V
scaling rule implicitly assumes the relinearisation component count stays
constant as the basis grows. With naive per-prime digits the simulated
(2^13, 360-bit) Mult grows 3.6x; with 60-bit grouped digits it lands on
the paper's 9.68 ms estimate almost exactly.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.scheme import FvContext
from repro.hw.config import HardwareConfig
from repro.hw.coprocessor import Coprocessor
from repro.nttmath.ntt import negacyclic_convolution
from repro.params import mini, table5_large
from repro.rns.basis import basis_for
from repro.rns.decompose import WordDecomp, prime_groups
from repro.system.related_work import PAPER_RECORD
from scaffolding import toy

GROUPS_OF_2 = WordDecomp(group_size=2)


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
        weights = GROUPS_OF_2.weights(basis)
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
        digits = GROUPS_OF_2.digit_rows(basis, residues)
        weights = GROUPS_OF_2.weights(basis)
        acc = np.zeros_like(residues)
        for j, weight in enumerate(weights):
            weight_col = np.array(
                [weight % p for p in basis.primes], dtype=np.int64
            )[:, None]
            acc = (acc + digits[j] * weight_col) % basis.primes_col
        assert np.array_equal(acc, residues)

    def test_digit_count(self, basis):
        assert GROUPS_OF_2.digit_rows(
            basis, np.zeros((basis.size, 4), dtype=np.int64)
        ).shape[0] == GROUPS_OF_2.count(basis) == -(-basis.size // 2)

    def test_group_of_one_equals_raw_digits(self, basis, rng):
        """group_size=1 degenerates to the per-prime raw-residue digits."""
        n = 8
        residues = np.stack([
            rng.integers(0, p, n) for p in basis.primes
        ]).astype(np.int64)
        digits = WordDecomp(group_size=1).digit_rows(basis, residues)
        for i in range(basis.size):
            expected = residues[i][None, :] % basis.primes_col
            assert np.array_equal(digits[i], expected)

    def test_rejects_wrong_shape(self, basis):
        with pytest.raises(ParameterError):
            GROUPS_OF_2.digit_rows(basis, np.zeros((2, 4), dtype=np.int64))


class TestGroupedRelinearisation:
    def test_sw_grouped_relin_correct(self, toy_context, toy_keys, rng):
        params = toy_context.params
        grouped = toy_context.relin_keygen(toy_keys.secret, GROUPS_OF_2)
        evaluator = Evaluator(toy_context)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        relined = evaluator.relinearize(raw, grouped)
        expected = negacyclic_convolution(
            a.coeffs.tolist(), b.coeffs.tolist(), params.t
        )
        assert toy_context.decrypt(
            relined, toy_keys.secret
        ).coeffs.tolist() == expected

    def test_hw_grouped_relin_bit_exact(self, mini_context, mini_keys,
                                        rng):
        params = mini_context.params
        grouped = mini_context.relin_keygen(mini_keys.secret, GROUPS_OF_2)
        evaluator = Evaluator(mini_context)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = mini_context.encrypt(a, mini_keys.public)
        sw = evaluator.relinearize(
            evaluator.multiply_raw(ct, ct), grouped
        ).to_coeff()
        hw, report = Coprocessor(params).mult(ct, ct, grouped)
        assert np.array_equal(hw.c0.residues, sw.c0.residues)
        assert np.array_equal(hw.c1.residues, sw.c1.residues)

    def test_component_count_halved(self, mini_context, mini_keys):
        grouped = mini_context.relin_keygen(mini_keys.secret, GROUPS_OF_2)
        assert len(grouped.pairs) == \
            -(-mini_context.params.k_q // 2)

    def test_fewer_key_loads_fewer_cycles(self, mini_context, mini_keys,
                                          rng):
        """The grouped key halves relin NTTs, products, and streaming."""
        params = mini_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = mini_context.encrypt(a, mini_keys.public)
        coprocessor = Coprocessor(params)
        _, report_rns = coprocessor.mult(ct, ct, mini_keys.relin)
        grouped = mini_context.relin_keygen(mini_keys.secret, GROUPS_OF_2)
        _, report_grouped = coprocessor.mult(ct, ct, grouped)
        assert report_grouped.total_cycles < report_rns.total_cycles
        assert report_grouped.transfer_cycles < report_rns.transfer_cycles

    def test_grouped_noise_larger_but_bounded(self):
        """60-bit digits add more noise than 30-bit ones but stay far
        below threshold (the classic digit-size trade-off): at toy and
        mini, on every seed (fresh keys, a fresh product), the grouped
        result is over 2^20 times noisier (~2^29 measured) and still
        decrypts."""
        from repro.fv.noise import noise_of

        for params, seed in product((toy(), mini()), range(8)):
            context = FvContext(params, seed=seed)
            keys = context.keygen()
            grouped = context.relin_keygen(keys.secret, GROUPS_OF_2)
            evaluator = Evaluator(context)
            rng = np.random.default_rng(seed)
            a = Plaintext(rng.integers(0, params.t, params.n), params.t)
            ct = context.encrypt(a, keys.public)
            raw = evaluator.multiply_raw(ct, ct)
            fine = evaluator.relinearize(raw, keys.relin)
            coarse = evaluator.relinearize(raw, grouped)
            fine_noise = noise_of(context, fine, keys.secret)
            coarse_noise = noise_of(context, coarse, keys.secret)
            where = (params.name, seed)
            assert coarse_noise > fine_noise << 20, where
            assert coarse_noise < params.q // (2 * params.t), where
            assert context.decrypt(fine, keys.secret) == \
                context.decrypt(coarse, keys.secret), where


@pytest.mark.slow
class TestTable5DirectValidation:
    """Execute the paper's second Table V point instead of extrapolating."""

    @pytest.fixture(scope="class")
    def large_setup(self):
        params = table5_large()
        context = FvContext(params, seed=3)
        keys = context.keygen()
        grouped = context.relin_keygen(keys.secret, GROUPS_OF_2)
        config = replace(HardwareConfig(), lift_cores=4, scale_cores=4)
        return params, context, keys, grouped, config

    @pytest.fixture(scope="class")
    def grouped_mult(self, large_setup):
        params, context, keys, grouped, config = large_setup
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        ct = context.encrypt(plain, keys.public)
        return Coprocessor(params, config).mult(ct, ct, grouped)

    def test_simulated_mult_matches_paper_estimate(self, large_setup,
                                                   grouped_mult):
        """Paper Table V row 2's computation, within 5%."""
        _, context, keys, _, _ = large_setup
        result, report = grouped_mult
        paper = PAPER_RECORD["Table V", "(2^13, 360) compute"].paper * 1e-3
        assert abs(report.seconds - paper) / paper < 0.05
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