"""Tests for homomorphic multiplication and relinearisation (Fig. 2)."""

import numpy as np
import pytest


from repro.errors import ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.noise import noise_budget_bits, noise_of
from repro.fv.reference import TextbookFv
from repro.nttmath.ntt import negacyclic_convolution
from repro.rns.decompose import WordDecomp


def plain_product(a: Plaintext, b: Plaintext, t: int) -> list[int]:
    return negacyclic_convolution(a.coeffs.tolist(), b.coeffs.tolist(), t)


@pytest.fixture(scope="module")
def evaluator(toy_context):
    return Evaluator(toy_context)


class TestMultiply:
    def test_mult_homomorphism(self, toy_context, toy_keys, evaluator, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = evaluator.multiply(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
            toy_keys.relin,
        )
        assert toy_context.decrypt(ct, toy_keys.secret).coeffs.tolist() \
            == plain_product(a, b, params.t)

    def test_mult_by_zero(self, toy_context, toy_keys, evaluator):
        params = toy_context.params
        a = Plaintext.from_list([1, 1, 1], params.n, params.t)
        zero = Plaintext.from_list([], params.n, params.t)
        ct = evaluator.multiply(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(zero, toy_keys.public),
            toy_keys.relin,
        )
        assert toy_context.decrypt(ct, toy_keys.secret) == zero

    def test_mult_by_one(self, toy_context, toy_keys, evaluator, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        one = Plaintext.from_list([1], params.n, params.t)
        ct = evaluator.multiply(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(one, toy_keys.public),
            toy_keys.relin,
        )
        assert toy_context.decrypt(ct, toy_keys.secret) == a

    def test_three_part_decryption(self, toy_context, toy_keys, evaluator,
                                   rng):
        """multiply_raw yields a valid 3-part ciphertext."""
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        assert raw.size == 3
        assert toy_context.decrypt(raw, toy_keys.secret).coeffs.tolist() \
            == plain_product(a, b, params.t)

    def test_relin_preserves_plaintext(self, toy_context, toy_keys,
                                       evaluator, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        relined = evaluator.relinearize(raw, toy_keys.relin)
        assert relined.size == 2
        assert toy_context.decrypt(relined, toy_keys.secret) == \
            toy_context.decrypt(raw, toy_keys.secret)

    def test_relin_noise_cost_is_small(self, toy_context, toy_keys,
                                       evaluator, rng):
        params = toy_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(a, toy_keys.public),
        )
        relined = evaluator.relinearize(raw, toy_keys.relin)
        raw_noise = noise_of(toy_context, raw, toy_keys.secret)
        rel_noise = noise_of(toy_context, relined, toy_keys.secret)
        # Relinearisation adds noise but only an additive term.
        assert rel_noise < raw_noise * 64 + 2**40

    def test_tensor_rejects_three_part_inputs(self, toy_context, toy_keys,
                                              evaluator, rng):
        params = toy_context.params
        a = Plaintext.from_list([], params.n, params.t)
        ct = toy_context.encrypt(a, toy_keys.public)
        raw = evaluator.multiply_raw(ct, ct)
        with pytest.raises(ParameterError):
            evaluator.multiply_raw(raw, ct)

    def test_relinearize_rejects_two_part(self, toy_context, toy_keys,
                                          evaluator):
        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.from_list([], params.n, params.t),
                                 toy_keys.public)
        with pytest.raises(ParameterError):
            evaluator.relinearize(ct, toy_keys.relin)

    def test_mult_matches_textbook(self, toy_context, toy_keys, evaluator,
                                   rng):
        """RNS mult and exact big-int mult agree on the plaintext."""
        params = toy_context.params
        textbook = TextbookFv(params)
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct_a = toy_context.encrypt(a, toy_keys.public)
        ct_b = toy_context.encrypt(b, toy_keys.public)
        rns_result = evaluator.multiply(ct_a, ct_b, toy_keys.relin)
        s_poly = textbook.poly_from_rns(toy_keys.secret.rns)
        tb_raw = textbook.multiply_raw(
            textbook.ciphertext_from_rns(ct_a),
            textbook.ciphertext_from_rns(ct_b),
        )
        assert textbook.decrypt(tb_raw, s_poly).coeffs.tolist() == \
            toy_context.decrypt(rns_result, toy_keys.secret).coeffs.tolist()


class TestDigitRelin:
    def test_digit_relin_correct(self, toy_context, toy_keys, evaluator,
                                 rng):
        params = toy_context.params
        digit_key = toy_context.relin_keygen(toy_keys.secret,
                                             WordDecomp(base_bits=30))
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(b, toy_keys.public),
        )
        relined = evaluator.relinearize(raw, digit_key)
        assert toy_context.decrypt(relined, toy_keys.secret).coeffs.tolist() \
            == plain_product(a, b, params.t)

    def test_two_component_key_like_slow_coprocessor(self, toy_context,
                                                     toy_keys, evaluator,
                                                     rng):
        """The paper's slow design uses a 2-component (90-bit digit) key."""
        params = toy_context.params
        base_bits = -(-params.q.bit_length() // 2)
        digit_key = toy_context.relin_keygen(toy_keys.secret,
                                             WordDecomp(base_bits=base_bits))
        assert digit_key.num_components == 2
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        raw = evaluator.multiply_raw(
            toy_context.encrypt(a, toy_keys.public),
            toy_context.encrypt(a, toy_keys.public),
        )
        relined = evaluator.relinearize(raw, digit_key)
        assert toy_context.decrypt(relined, toy_keys.secret).coeffs.tolist() \
            == plain_product(a, a, params.t)

    def test_key_sizes_match_paper_ratio(self, toy_context, toy_keys):
        """RNS key (k_q components) is ~3x the 2-component digit key."""
        params = toy_context.params
        digit_key = toy_context.relin_keygen(
            toy_keys.secret,
            WordDecomp(base_bits=-(-params.q.bit_length() // 2)))
        rns_words, digit_words = (
            sum(b.size + a.size for b, a in key.pairs)
            for key in (toy_keys.relin, digit_key))
        assert rns_words == digit_words * params.k_q // 2


class TestDepth:
    def test_depth_four_supported(self, mini_context, mini_keys):
        """Paper Sec. III-A: the parameter shape supports depth 4."""
        params = mini_context.params
        evaluator = Evaluator(mini_context)
        plain = Plaintext.from_list([1], params.n, params.t)
        ct = mini_context.encrypt(plain, mini_keys.public)
        for _ in range(4):
            ct = evaluator.multiply(ct, ct, mini_keys.relin)
        decrypted = mini_context.decrypt(ct, mini_keys.secret)
        assert decrypted.coeffs[0] == 1
        assert np.all(decrypted.coeffs[1:] == 0)

    def test_budget_decreases_monotonically(self, mini_context, mini_keys):
        evaluator = Evaluator(mini_context)
        params = mini_context.params
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        ct = mini_context.encrypt(plain, mini_keys.public)
        budgets = [noise_budget_bits(mini_context, ct, mini_keys.secret)]
        for _ in range(3):
            ct = evaluator.multiply(ct, ct, mini_keys.relin)
            budgets.append(
                noise_budget_bits(mini_context, ct, mini_keys.secret)
            )
        assert all(b1 > b2 for b1, b2 in zip(budgets, budgets[1:], strict=False))
        assert budgets[-1] > 0
