"""Tests for the FV scheme: samplers, encoders, keygen, encrypt/decrypt,
additive operations, and the textbook cross-check (paper Sec. II-B)."""

import numpy as np
import pytest

from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import BatchEncoder, Plaintext
from repro.fv.reference import TextbookFv
from repro.fv.sampler import (
    discrete_gaussian,
    uniform_mod,
    uniform_rns_rows,
    uniform_ternary,
)
from repro.fv.scheme import FvContext
from repro.params import mini


class TestSamplers:
    def test_ternary_range(self, rng):
        samples = uniform_ternary(rng, 10_000)
        assert set(np.unique(samples)) <= {-1, 0, 1}

    def test_ternary_roughly_uniform(self, rng):
        samples = uniform_ternary(rng, 30_000)
        for value in (-1, 0, 1):
            assert 0.30 < np.mean(samples == value) < 0.37

    def test_gaussian_std(self, rng):
        sigma = 102.0
        samples = discrete_gaussian(rng, 100_000, sigma)
        assert abs(samples.std() - sigma) / sigma < 0.03
        assert abs(samples.mean()) < 2.0

    def test_gaussian_tail_cut(self, rng):
        sigma = 10.0
        samples = discrete_gaussian(rng, 100_000, sigma)
        assert np.abs(samples).max() <= 10 * sigma + 1

    def test_gaussian_rejects_bad_sigma(self, rng):
        with pytest.raises(ParameterError):
            discrete_gaussian(rng, 10, 0.0)

    def test_uniform_mod_range(self, rng):
        samples = uniform_mod(rng, 10_000, 97)
        assert samples.min() >= 0 and samples.max() < 97

    def test_uniform_rns_rows_shape(self, rng, toy_params):
        rows = uniform_rns_rows(rng, toy_params.n, toy_params.q_primes)
        assert rows.shape == (toy_params.k_q, toy_params.n)
        for row, prime in zip(rows, toy_params.q_primes, strict=True):
            assert row.max() < prime

    def test_determinism(self):
        a = uniform_ternary(np.random.default_rng(5), 100)
        b = uniform_ternary(np.random.default_rng(5), 100)
        assert np.array_equal(a, b)


class TestPlaintext:
    def test_reduction(self):
        plain = Plaintext(np.array([5, -1, 2]), 2)
        assert plain.coeffs.tolist() == [1, 1, 0]

    def test_from_list_pads(self):
        plain = Plaintext.from_list([1, 1], 8, 2)
        assert plain.coeffs.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_from_list_rejects_overflow(self):
        with pytest.raises(EncodingError):
            Plaintext.from_list([1] * 9, 8, 2)

    def test_equality(self):
        a = Plaintext.from_list([1], 4, 2)
        b = Plaintext.from_list([1], 4, 2)
        assert a == b
        assert a != Plaintext.from_list([0], 4, 2)


class TestBatchEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return BatchEncoder(mini(t=65537))

    def test_roundtrip(self, encoder, rng):
        values = rng.integers(0, 65537, encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values))
        assert np.array_equal(decoded, values)

    def test_partial_fill(self, encoder):
        decoded = encoder.decode(encoder.encode([1, 2, 3]))
        assert decoded[:3].tolist() == [1, 2, 3]
        assert np.all(decoded[3:] == 0)

    def test_slotwise_add_structure(self, encoder):
        """encode(a) + encode(b) decodes to slot-wise a + b."""
        a = np.arange(encoder.slot_count) % 65537
        b = (np.arange(encoder.slot_count) * 3) % 65537
        summed = Plaintext(
            (encoder.encode(a).coeffs + encoder.encode(b).coeffs) % 65537,
            65537,
        )
        assert np.array_equal(encoder.decode(summed), (a + b) % 65537)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ParameterError):
            BatchEncoder(mini(t=257))  # 256 not divisible by 2n = 512

    def test_rejects_too_many_values(self, encoder):
        with pytest.raises(EncodingError):
            encoder.encode(np.zeros(encoder.slot_count + 1))


class TestEncryptDecrypt:
    def test_roundtrip(self, toy_context, toy_keys, rng):
        params = toy_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        assert toy_context.decrypt(ct, toy_keys.secret) == plain

    def test_fresh_noise_is_small(self, toy_context, toy_keys):
        params = toy_context.params
        plain = Plaintext.from_list([], params.n, params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        _, noise = toy_context.decrypt_with_noise(ct, toy_keys.secret)
        # Fresh noise ~ 2*n*sigma; far below the q/(2t) threshold.
        assert 0 < noise < params.q // (2 * params.t) // 2**40

    def test_distinct_randomness(self, toy_context, toy_keys):
        params = toy_context.params
        plain = Plaintext.from_list([], params.n, params.t)
        ct1 = toy_context.encrypt(plain, toy_keys.public)
        ct2 = toy_context.encrypt(plain, toy_keys.public)
        assert not np.array_equal(ct1.c0.residues, ct2.c0.residues)

    def test_wrong_plaintext_ring_rejected(self, toy_context, toy_keys):
        params = toy_context.params
        bad = Plaintext.from_list([], params.n * 2, params.t)
        with pytest.raises(ParameterError):
            toy_context.encrypt(bad, toy_keys.public)

    def test_add_homomorphism(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.add(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        expected = Plaintext((a.coeffs + b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_sub_homomorphism(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.sub(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        expected = Plaintext((a.coeffs - b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_negate(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.negate(toy_context.encrypt(a, toy_keys.public))
        expected = Plaintext((-a.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_add_plain(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.add_plain(
            toy_context.encrypt(a, toy_keys.public), b
        )
        expected = Plaintext((a.coeffs + b.coeffs) % params.t, params.t)
        assert toy_context.decrypt(ct, toy_keys.secret) == expected

    def test_mul_plain(self, toy_context, toy_keys):
        params = toy_context.params
        a = Plaintext.from_list([1, 1], params.n, params.t)
        b = Plaintext.from_list([0, 1], params.n, params.t)  # times x
        ct = toy_context.mul_plain(
            toy_context.encrypt(a, toy_keys.public), b
        )
        decrypted = toy_context.decrypt(ct, toy_keys.secret)
        assert decrypted.coeffs[:3].tolist() == [0, 1, 1]

    def test_size_mismatch_rejected(self, toy_context, toy_keys, rng):
        params = toy_context.params
        a = Plaintext.from_list([], params.n, params.t)
        ct = toy_context.encrypt(a, toy_keys.public)
        from repro.fv.ciphertext import Ciphertext
        three = Ciphertext((ct.c0, ct.c1, ct.c0), params)
        with pytest.raises(ParameterError):
            toy_context.add(ct, three)


class TestTextbookCrossCheck:
    """Bit-level agreement between the RNS path and exact big-int FV."""

    def test_encrypt_bit_exact(self, toy_context, toy_keys, rng):
        params = toy_context.params
        textbook = TextbookFv(params)
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        rns_ct = toy_context.encrypt_with(plain, toy_keys.public, u, e1, e2)
        p0 = textbook.poly_from_rns(toy_keys.public.p0)
        p1 = textbook.poly_from_rns(toy_keys.public.p1)
        c0, c1 = textbook.encrypt_with(plain, p0, p1, u, e1, e2)
        # Born in the evaluation domain: its coefficients are the
        # textbook ciphertext's, bit for bit.
        assert rns_ct.ntt_resident
        coeff = rns_ct.to_coeff()
        assert list(c0.coeffs) == coeff.c0.to_int_coeffs()
        assert list(c1.coeffs) == coeff.c1.to_int_coeffs()

    def test_decrypt_agreement(self, toy_context, toy_keys, rng):
        params = toy_context.params
        textbook = TextbookFv(params)
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        s_poly = textbook.poly_from_rns(toy_keys.secret.rns)
        tb_plain = textbook.decrypt(textbook.ciphertext_from_rns(ct), s_poly)
        assert tb_plain == toy_context.decrypt(ct, toy_keys.secret)

    def test_public_key_relation(self, toy_context, toy_keys):
        """p0 + p1*s must equal -e (small)."""
        textbook = TextbookFv(toy_context.params)
        s = textbook.poly_from_rns(toy_keys.secret.rns)
        p0 = textbook.poly_from_rns(toy_keys.public.p0)
        p1 = textbook.poly_from_rns(toy_keys.public.p1)
        residue = p0 + p1 * s
        sigma = toy_context.params.sigma
        assert max(abs(c) for c in residue.centered()) < 20 * sigma + 20

    def test_secret_key_is_ternary(self, toy_keys):
        assert set(np.unique(toy_keys.secret.coeffs)) <= {-1, 0, 1}


class TestDeterminism:
    def test_same_seed_same_keys(self, toy_params):
        ctx_a = FvContext(toy_params, seed=7)
        ctx_b = FvContext(toy_params, seed=7)
        keys_a = ctx_a.keygen()
        keys_b = ctx_b.keygen()
        assert np.array_equal(keys_a.secret.coeffs, keys_b.secret.coeffs)
        assert np.array_equal(keys_a.public.p0.residues,
                              keys_b.public.p0.residues)

    def test_different_seed_different_keys(self, toy_params):
        keys_a = FvContext(toy_params, seed=7).keygen()
        keys_b = FvContext(toy_params, seed=8).keygen()
        assert not np.array_equal(keys_a.secret.coeffs,
                                  keys_b.secret.coeffs)
