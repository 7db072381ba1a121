"""Failure-injection tests: the system must *detect* or *survive* faults
in the documented ways, not silently corrupt results.

Covers: corrupted ciphertexts, wrong keys, schedule sabotage (the BRAM
port checker must catch an intentionally broken access pattern),
datapath overflow guards, and noise-budget exhaustion.
"""

import numpy as np
import pytest

from repro.errors import (
    HardwareModelError,
    MemoryConflictError,
    ParameterError,
)
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.noise import noise_budget_bits
from repro.fv.scheme import FvContext
from repro.hw.bram import PairedPolyMemory
from repro.hw.config import HardwareConfig
from repro.hw.modred import SlidingWindowReducer
from repro.hw.ntt_unit import DualCoreNttUnit
from repro.nttmath.ntt import NegacyclicTransformer
from repro.params import toy
from repro.poly.rns_poly import RnsPoly


class TestCorruptedCiphertexts:
    def test_single_residue_corruption_breaks_decryption(self, toy_context,
                                                         toy_keys):
        """Flipping one residue word must scramble the plaintext — the
        CRT spreads the error across the whole coefficient."""
        params = toy_context.params
        plain = Plaintext.zero(params.n, params.t)
        ct = toy_context.encrypt(plain, toy_keys.public).to_coeff()
        corrupted_rows = ct.c0.residues.copy()
        corrupted_rows[0, 0] = (corrupted_rows[0, 0] + 12345) \
            % params.q_primes[0]
        corrupted = Ciphertext(
            (RnsPoly(toy_context.q_basis, corrupted_rows), ct.c1), params
        )
        _, noise = toy_context.decrypt_with_noise(corrupted,
                                                  toy_keys.secret)
        # The injected error is of magnitude ~q/q_0, way above any noise.
        assert noise > params.q // (4 * params.q_primes[0])

    def test_wrong_secret_key_yields_garbage(self, toy_context, toy_keys):
        params = toy_context.params
        other_keys = FvContext(params, seed=999).keygen()
        plain = Plaintext(
            np.arange(params.n) % params.t, params.t
        )
        ct = toy_context.encrypt(plain, toy_keys.public)
        wrong = toy_context.decrypt(ct, other_keys.secret)
        assert wrong != plain

    def test_mismatched_relin_key_breaks_product(self, toy_context,
                                                 toy_keys):
        """Relinearising with another party's key must not decrypt to the
        correct product."""
        params = toy_context.params
        other_keys = FvContext(params, seed=998).keygen()
        evaluator = Evaluator(toy_context)
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        raw = evaluator.multiply_raw(ct, ct)
        relined = evaluator.relinearize(raw, other_keys.relin)
        correct = toy_context.decrypt(raw, toy_keys.secret)
        assert toy_context.decrypt(relined, toy_keys.secret) != correct

    def test_truncated_wire_blob_rejected(self, toy_context, toy_keys):
        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.zero(params.n, params.t),
                                 toy_keys.public)
        with pytest.raises(ParameterError):
            Ciphertext.from_bytes(
                ct.to_coeff().to_bytes()[: params.poly_bytes // 2],
                                  params, toy_context.q_basis)


class TestScheduleSabotage:
    def test_port_checker_catches_broken_schedule(self):
        """Reading two lower-block words in one cycle — the conflict the
        Fig. 3 scheme exists to prevent — must raise, not corrupt."""
        memory = PairedPolyMemory(64)
        memory.read_word(0, cycle=0)
        with pytest.raises(MemoryConflictError):
            memory.read_word(1, cycle=0)

    def test_memory_corruption_detected_by_equivalence(self, rng):
        """If BRAM contents are tampered mid-transform, the result no
        longer matches the mathematical NTT."""
        n = 64
        prime = toy().q_primes[0]
        unit = DualCoreNttUnit(n, prime, HardwareConfig())
        values = rng.integers(0, prime, n)
        reference = NegacyclicTransformer(n, prime).forward(values)
        # Run normally: matches.
        clean, _ = unit.run_strict(values)
        assert np.array_equal(clean, reference)
        # Sabotage the twiddle ROM of the unit's transformer: detected.
        original = unit.transformer.forward_tables[2].copy()
        unit.transformer.forward_tables[2][0] ^= 1
        try:
            dirty, _ = unit.run_strict(values)
            assert not np.array_equal(dirty, reference)
        finally:
            unit.transformer.forward_tables[2][:] = original

    def test_out_of_range_word_address(self):
        memory = PairedPolyMemory(64)
        with pytest.raises(HardwareModelError):
            memory.read_word(memory.words)


class TestDatapathGuards:
    def test_reducer_rejects_oversized_operand(self):
        reducer = SlidingWindowReducer(toy().q_primes[0])
        with pytest.raises(HardwareModelError):
            reducer.reduce(1 << 62)

    def test_reducer_rejects_negative_operand(self):
        reducer = SlidingWindowReducer(toy().q_primes[0])
        with pytest.raises(HardwareModelError):
            reducer.reduce(-5)

    def test_ntt_unit_rejects_wrong_shape(self):
        unit = DualCoreNttUnit(64, toy().q_primes[0], HardwareConfig())
        with pytest.raises(HardwareModelError):
            unit.run_strict(np.zeros(65, dtype=np.int64))


class TestNoiseExhaustion:
    def test_deep_circuit_eventually_fails_cleanly(self):
        """Past the depth budget the budget hits zero and decryption
        visibly fails — noise failure is detectable, never silent."""
        params = toy()
        context = FvContext(params, seed=404)
        keys = context.keygen()
        evaluator = Evaluator(context)
        plain = Plaintext.from_list([1], params.n, params.t)
        ct = context.encrypt(plain, keys.public)
        failed = False
        for _ in range(12):
            ct = evaluator.multiply(ct, ct, keys.relin)
            budget = noise_budget_bits(context, ct, keys.secret)
            decrypted = context.decrypt(ct, keys.secret)
            correct = (decrypted.coeffs[0] == 1
                       and not decrypted.coeffs[1:].any())
            if not correct:
                # The failure must have been predicted by the budget
                # metric (within its 1-bit resolution) — never a silent
                # surprise while the budget still looked healthy.
                assert budget < 1.0
                failed = True
                break
            assert budget > 0, "correct decryption with negative budget"
        assert failed, "the toy set must exhaust within 12 levels"
