"""Tests for Galois automorphisms and slot rotations (extension)."""


import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fv.encoder import BatchEncoder
from repro.fv.galois import (
    GaloisEngine,
    apply_galois_rows,
    conjugation_element,
    galois_index_maps,
    rotation_element,
    slot_permutation,
    summation_elements,
)
from repro.fv.noise import noise_budget_bits
from repro.fv.scheme import FvContext
from repro.params import mini


@pytest.fixture(scope="module")
def galois_context():
    return FvContext(mini(t=65537), seed=71)


@pytest.fixture(scope="module")
def galois_keys(galois_context):
    return galois_context.keygen()


@pytest.fixture(scope="module")
def engine(galois_context):
    return GaloisEngine(galois_context)


@pytest.fixture(scope="module")
def encoder(galois_context):
    return BatchEncoder(galois_context.params)


class TestAutomorphismMath:
    def test_index_maps_are_permutations(self):
        for g in (3, 5, 9, 127):
            dest, sign = galois_index_maps(256, g)
            assert sorted(dest.tolist()) == list(range(256))
            assert set(np.unique(sign)) <= {-1, 1}

    def test_identity_element(self):
        dest, sign = galois_index_maps(64, 1)
        assert np.array_equal(dest, np.arange(64))
        assert np.all(sign == 1)

    def test_rejects_even_element(self):
        with pytest.raises(ParameterError):
            galois_index_maps(64, 2)

    def test_matches_polynomial_substitution(self, rng):
        """tau_g(a) computed by index maps equals a(x^g) mod (x^n+1)."""
        n, modulus = 16, 97
        g = 3
        coeffs = [int(c) for c in rng.integers(0, modulus, n)]
        # Substitute x -> x^g the slow exact way.
        expected = [0] * n
        for i, c in enumerate(coeffs):
            raw = (i * g) % (2 * n)
            if raw < n:
                expected[raw] = (expected[raw] + c) % modulus
            else:
                expected[raw - n] = (expected[raw - n] - c) % modulus
        rows = np.array([coeffs], dtype=np.int64)
        out = apply_galois_rows(rows, np.array([[modulus]]), n, g)
        assert out[0].tolist() == expected

    def test_automorphism_is_multiplicative(self, rng):
        """tau_g(a*b) == tau_g(a) * tau_g(b) — it is a ring map."""
        from repro.nttmath.ntt import negacyclic_convolution

        n, modulus, g = 16, 97, 5
        a = [int(c) for c in rng.integers(0, modulus, n)]
        b = [int(c) for c in rng.integers(0, modulus, n)]
        product = negacyclic_convolution(a, b, modulus)
        mod_col = np.array([[modulus]])
        tau_ab = apply_galois_rows(
            np.array([product]), mod_col, n, g
        )[0].tolist()
        tau_a = apply_galois_rows(np.array([a]), mod_col, n, g)[0].tolist()
        tau_b = apply_galois_rows(np.array([b]), mod_col, n, g)[0].tolist()
        assert tau_ab == negacyclic_convolution(tau_a, tau_b, modulus)

    def test_slot_permutation_is_permutation(self):
        for g in (3, 9, conjugation_element(256)):
            perm = slot_permutation(256, g)
            assert sorted(perm.tolist()) == list(range(256))

    def test_rotation_elements_form_group(self):
        n = 256
        assert rotation_element(0, n) == 1
        composed = (rotation_element(1, n) * rotation_element(2, n)) \
            % (2 * n)
        assert composed == rotation_element(3, n)


class TestHomomorphicRotation:
    def test_rotation_matches_plaintext_permutation(self, galois_context,
                                                    galois_keys, engine,
                                                    encoder, rng):
        params = galois_context.params
        values = rng.integers(0, params.t, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        g = rotation_element(1, params.n)
        key = engine.keygen(galois_keys.secret, g)
        rotated = engine.apply(ct, key)
        decoded = encoder.decode(
            galois_context.decrypt(rotated, galois_keys.secret)
        )
        assert np.array_equal(decoded,
                              values[slot_permutation(params.n, g)])

    def test_rotation_composes(self, galois_context, galois_keys, engine,
                               encoder, rng):
        params = galois_context.params
        values = rng.integers(0, params.t, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        k1 = engine.keygen(galois_keys.secret,
                           rotation_element(1, params.n))
        k3 = engine.keygen(galois_keys.secret,
                           rotation_element(3, params.n))
        thrice = engine.apply(engine.apply(engine.apply(ct, k1), k1), k1)
        direct = engine.apply(ct, k3)
        d1 = encoder.decode(
            galois_context.decrypt(thrice, galois_keys.secret)
        )
        d2 = encoder.decode(
            galois_context.decrypt(direct, galois_keys.secret)
        )
        assert np.array_equal(d1, d2)

    def test_conjugation_is_involution(self, galois_context, galois_keys,
                                       engine, encoder, rng):
        params = galois_context.params
        values = rng.integers(0, params.t, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        key = engine.keygen(galois_keys.secret,
                            conjugation_element(params.n))
        back = engine.apply(engine.apply(ct, key), key)
        decoded = encoder.decode(
            galois_context.decrypt(back, galois_keys.secret)
        )
        assert np.array_equal(decoded, values)

    def test_sum_all_slots(self, galois_context, galois_keys, engine,
                           encoder, rng):
        params = galois_context.params
        values = rng.integers(0, 1000, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        keys = {label: engine.keygen(galois_keys.secret, g)
                for label, g in summation_elements(params.n).items()}
        total = engine.sum_all_slots(ct, keys)
        decoded = encoder.decode(
            galois_context.decrypt(total, galois_keys.secret)
        )
        expected = int(values.sum() % params.t)
        assert np.all(decoded == expected)

    def test_rotation_noise_cheaper_than_mult(self, galois_context,
                                              galois_keys, engine, encoder,
                                              rng):
        """A rotation costs only the additive key-switch noise floor
        (~k*n*2^30*sigma), cheaper than a multiplication and — unlike a
        Mult — not compounding: two rotations cost barely more than one.

        The first Mult of a fresh ciphertext lands on that same floor
        (its relinearisation is the same switch), so one rotation
        against one Mult compares two realised norms 0.7 bits apart
        either way over seeds, here and at hpca19. The strict
        comparison is made where the Mult's own term shows, some 20
        bits: on the Mult's output, whose noise is at the floor, and
        over two operations each."""
        from repro.fv.evaluator import Evaluator

        params = galois_context.params
        values = rng.integers(0, params.t, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        before = noise_budget_bits(galois_context, ct, galois_keys.secret)
        key = engine.keygen(galois_keys.secret,
                            rotation_element(1, params.n))
        rotated_once = engine.apply(ct, key)
        rotated_twice = engine.apply(rotated_once, key)
        after_one = noise_budget_bits(galois_context, rotated_once,
                                      galois_keys.secret)
        after_two = noise_budget_bits(galois_context, rotated_twice,
                                      galois_keys.secret)
        evaluator = Evaluator(galois_context)
        mult = evaluator.multiply(ct, ct, galois_keys.relin)
        after_mult = noise_budget_bits(galois_context, mult,
                                       galois_keys.secret)
        after_mult_rotated = noise_budget_bits(
            galois_context, engine.apply(mult, key), galois_keys.secret)
        after_mult_squared = noise_budget_bits(
            galois_context,
            evaluator.multiply(mult, mult, galois_keys.relin),
            galois_keys.secret)
        assert after_one > 0
        assert after_mult - after_mult_rotated \
            < after_mult - after_mult_squared
        assert before - after_two < before - after_mult_squared
        # Additive floor: the second rotation is nearly free.
        assert after_one - after_two < 3

    def test_requires_two_part_ciphertext(self, galois_context,
                                          galois_keys, engine, encoder):
        from repro.fv.evaluator import Evaluator

        params = galois_context.params
        ct = galois_context.encrypt(
            encoder.encode(np.ones(8, dtype=np.int64)),
            galois_keys.public,
        )
        raw = Evaluator(galois_context).multiply_raw(ct, ct)
        key = engine.keygen(galois_keys.secret,
                            rotation_element(1, params.n))
        with pytest.raises(ParameterError):
            engine.apply(raw, key)

    def test_missing_rotation_key(self, galois_context, galois_keys,
                                  engine, encoder):
        ct = galois_context.encrypt(
            encoder.encode(np.ones(4, dtype=np.int64)),
            galois_keys.public,
        )
        with pytest.raises(ParameterError):
            engine.rotate(ct, 5, {})


class TestRotationOnCoprocessor:
    """The extension claim: rotations run on the paper's ISA unchanged."""

    @pytest.fixture(scope="class")
    def rotation_setup(self, galois_context, galois_keys, engine, encoder):
        rng = np.random.default_rng(12)
        params = galois_context.params
        values = rng.integers(0, params.t, params.n)
        ct = galois_context.encrypt(encoder.encode(values),
                                    galois_keys.public)
        g = rotation_element(1, params.n)
        key = engine.keygen(galois_keys.secret, g)
        return values, ct, key

    def test_hw_rotation_bit_exact(self, galois_context, engine,
                                   rotation_setup):
        from repro.hw.coprocessor import Coprocessor

        values, ct, key = rotation_setup
        sw = engine.apply(ct, key).to_coeff()
        hw, report = Coprocessor(galois_context.params).rotate(ct, key)
        assert np.array_equal(hw.c0.residues, sw.c0.residues)
        assert np.array_equal(hw.c1.residues, sw.c1.residues)
        assert report.total_cycles > 0

    def test_hw_rotation_decodes_to_permutation(self, galois_context,
                                                galois_keys, encoder,
                                                rotation_setup):
        from repro.hw.coprocessor import Coprocessor

        values, ct, key = rotation_setup
        hw, _ = Coprocessor(galois_context.params).rotate(ct, key)
        decoded = encoder.decode(
            galois_context.decrypt(hw, galois_keys.secret)
        )
        perm = slot_permutation(galois_context.params.n, key.element)
        assert np.array_equal(decoded, values[perm])

    def test_rotation_cheaper_than_mult(self, galois_context, galois_keys,
                                        rotation_setup):
        from repro.fv.evaluator import Evaluator
        from repro.hw.coprocessor import Coprocessor

        values, ct, key = rotation_setup
        coprocessor = Coprocessor(galois_context.params)
        _, rotation_report = coprocessor.rotate(ct, key)
        _, mult_report = coprocessor.mult(ct, ct, galois_keys.relin)
        assert rotation_report.total_cycles < mult_report.total_cycles

    def test_rotation_program_census(self, galois_context):
        """2 GALOIS + k_q (DIGIT, NTT, 2 CMUL) + 2 INTT + final adds."""
        from repro.hw.compiler import compile_rotation
        from repro.hw.config import HardwareConfig
        from repro.hw.isa import Opcode

        params = galois_context.params
        program = compile_rotation(params, HardwareConfig(), 3)
        histogram = program.opcode_histogram()
        assert histogram[Opcode.GALOIS] == 2
        assert histogram[Opcode.NTT] == params.k_q
        assert histogram[Opcode.INTT] == 2
        assert histogram[Opcode.CMUL] == 2 * params.k_q
