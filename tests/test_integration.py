"""Integration tests: full client -> cloud -> client flows across the
serialisation boundary and the simulated hardware (paper Fig. 11)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.noise import noise_budget_bits
from repro.hw.coprocessor import Coprocessor
from repro.nttmath.ntt import negacyclic_convolution
from repro.serve import ServingRuntime
from repro.system.server import CostModel
from repro.system.workloads import JobKind
from scaffolding import mixed_workload


class TestSerialisationRoundtrip:
    def test_ciphertext_wire_format(self, mini_context, mini_keys, rng):
        params = mini_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        # The headerless wire carries coefficients.
        ct = mini_context.encrypt(plain, mini_keys.public).to_coeff()
        blob = ct.to_wire_bytes()
        assert len(blob) == params.ciphertext_bytes
        restored = Ciphertext.from_bytes(blob, params,
                                         mini_context.q_basis)
        assert np.array_equal(restored.c0.residues, ct.c0.residues)
        assert np.array_equal(restored.c1.residues, ct.c1.residues)

    def test_decrypt_after_roundtrip(self, mini_context, mini_keys, rng):
        params = mini_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = mini_context.encrypt(plain, mini_keys.public)
        restored = Ciphertext.from_bytes(ct.to_coeff().to_wire_bytes(), params,
                                         mini_context.q_basis)
        assert mini_context.decrypt(restored, mini_keys.secret) == plain

    def test_wire_size_drives_dma_model(self, paper_params):
        """The serialised polynomial is the Table III payload."""
        assert paper_params.poly_bytes == 98_304

    def test_rejects_truncated_blob(self, mini_context, mini_keys, rng):
        params = mini_context.params
        plain = Plaintext.from_list([], params.n, params.t)
        ct = mini_context.encrypt(plain, mini_keys.public)
        with pytest.raises(ParameterError):
            Ciphertext.from_bytes(ct.to_coeff().to_wire_bytes()[:-1], params,
                                  mini_context.q_basis)

    def test_three_part_round_trip(self, mini_context, mini_keys, rng):
        """Pre-relinearisation (size-3) ciphertexts must survive the
        wire: serialise after multiply_raw, restore, relinearise the
        restored copy, decrypt — all bit-exact."""
        params = mini_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        evaluator = Evaluator(mini_context)
        raw = evaluator.multiply_raw(
            mini_context.encrypt(a, mini_keys.public),
            mini_context.encrypt(b, mini_keys.public),
        )
        assert raw.size == 3
        blob = raw.to_wire_bytes()
        assert len(blob) == raw.byte_size() == 3 * params.poly_bytes
        restored = Ciphertext.from_bytes(blob, params,
                                         mini_context.q_basis)
        assert restored.size == 3
        for part, original in zip(restored.parts, raw.parts, strict=True):
            assert np.array_equal(part.residues, original.residues)
        relin = evaluator.relinearize(restored, mini_keys.relin)
        expected = evaluator.relinearize(raw, mini_keys.relin)
        assert mini_context.decrypt(relin, mini_keys.secret) == \
            mini_context.decrypt(expected, mini_keys.secret)

    def test_three_part_file_truncation_detected(self, tmp_path,
                                                 mini_context, mini_keys,
                                                 rng):
        """A 3-part file cut down to a *valid 2-part length* must not
        load silently — the header's part count catches it."""
        from repro.errors import EncodingError
        from repro.io import load_ciphertext, save_ciphertext

        params = mini_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        evaluator = Evaluator(mini_context)
        raw = evaluator.multiply_raw(
            mini_context.encrypt(plain, mini_keys.public),
            mini_context.encrypt(plain, mini_keys.public),
        )
        path = tmp_path / "three_part.ct"
        save_ciphertext(path, raw)
        restored = load_ciphertext(path, params)
        assert restored.size == 3

        truncated = tmp_path / "truncated.ct"
        truncated.write_bytes(
            path.read_bytes()[:-params.poly_bytes]
        )
        with pytest.raises(EncodingError):
            load_ciphertext(truncated, params)


class TestClientCloudFlow:
    def test_cloud_mult_through_wire_format(self, mini_context, mini_keys,
                                            rng):
        """Client serialises, 'cloud' coprocessor computes, client
        deserialises and decrypts — the full Fig. 11 path."""
        params = mini_context.params
        a = Plaintext(rng.integers(0, params.t, params.n), params.t)
        b = Plaintext(rng.integers(0, params.t, params.n), params.t)
        blob_a = mini_context.encrypt(a, mini_keys.public).to_coeff() \
            .to_wire_bytes()
        blob_b = mini_context.encrypt(b, mini_keys.public).to_coeff() \
            .to_wire_bytes()

        # Cloud side: reconstruct, multiply on the simulated hardware.
        ct_a = Ciphertext.from_bytes(blob_a, params, mini_context.q_basis)
        ct_b = Ciphertext.from_bytes(blob_b, params, mini_context.q_basis)
        coprocessor = Coprocessor(params)
        result, report = coprocessor.mult(ct_a, ct_b, mini_keys.relin)
        reply = result.to_wire_bytes()
        assert report.total_cycles > 0

        # Client side: decrypt the reply.
        restored = Ciphertext.from_bytes(reply, params,
                                         mini_context.q_basis)
        expected = negacyclic_convolution(a.coeffs.tolist(),
                                          b.coeffs.tolist(), params.t)
        assert mini_context.decrypt(
            restored, mini_keys.secret
        ).coeffs.tolist() == expected

    def test_mixed_pipeline_hw_equals_sw(self, mini_context, mini_keys,
                                         rng):
        """(a*b) + c - d evaluated on HW matches the software evaluator
        and the plaintext computation."""
        params = mini_context.params
        evaluator = Evaluator(mini_context)
        coprocessor = Coprocessor(params)
        plains = [
            Plaintext(rng.integers(0, params.t, params.n), params.t)
            for _ in range(4)
        ]
        cts = [mini_context.encrypt(p, mini_keys.public) for p in plains]

        # The coprocessor returns coefficient registers: the host-side
        # subtraction runs on the coefficient form of its operand.
        hw_prod, _ = coprocessor.mult(cts[0], cts[1], mini_keys.relin)
        hw_sum, _ = coprocessor.add(hw_prod, cts[2])
        hw_result = mini_context.sub(hw_sum, cts[3].to_coeff())

        sw_prod = evaluator.multiply(cts[0], cts[1], mini_keys.relin)
        sw_result = mini_context.sub(
            mini_context.add(sw_prod, cts[2]), cts[3]
        )
        assert np.array_equal(hw_result.c0.residues,
                              sw_result.to_coeff().c0.residues)

        product = negacyclic_convolution(
            plains[0].coeffs.tolist(), plains[1].coeffs.tolist(), params.t
        )
        expected = (np.array(product) + plains[2].coeffs
                    - plains[3].coeffs) % params.t
        assert mini_context.decrypt(
            hw_result, mini_keys.secret
        ).coeffs.tolist() == expected.tolist()

    def test_repeated_hw_mults_track_sw_noise(self, mini_context,
                                              mini_keys):
        """A depth-3 chain on the coprocessor stays decryptable and
        bit-identical to the software evaluator at every level."""
        params = mini_context.params
        evaluator = Evaluator(mini_context)
        coprocessor = Coprocessor(params)
        plain = Plaintext.from_list([1, 1], params.n, params.t)
        hw_ct = mini_context.encrypt(plain, mini_keys.public)
        sw_ct = hw_ct
        for _ in range(3):
            hw_ct, _ = coprocessor.mult(hw_ct, hw_ct, mini_keys.relin)
            sw_ct = evaluator.multiply(sw_ct, sw_ct, mini_keys.relin)
            assert np.array_equal(hw_ct.c0.residues,
                                  sw_ct.to_coeff().c0.residues)
        assert noise_budget_bits(mini_context, hw_ct,
                                 mini_keys.secret) > 0


class TestServerScheduling:
    def test_mixed_workload_end_to_end_timing(self, paper_params):
        cost = CostModel(paper_params)
        report = ServingRuntime(cost).run(mixed_workload(10, 4, seed=2))
        assert len(report.results) == 50
        # Adds are much faster than mults.
        add_latency = min(
            r.latency_seconds for r in report.results
            if r.job.kind is JobKind.ADD
        )
        mult_latency = min(
            r.latency_seconds for r in report.results
            if r.job.kind is JobKind.MULT
        )
        assert mult_latency > 5 * add_latency

    def test_load_balancing(self, paper_params):
        cost = CostModel(paper_params)
        report = ServingRuntime(cost).run(mixed_workload(8, 2, seed=5))
        per_coproc = {}
        for result in report.results:
            per_coproc.setdefault(result.coprocessor, 0)
            per_coproc[result.coprocessor] += 1
        counts = sorted(per_coproc.values())
        assert len(counts) == 2
        assert counts[0] >= len(report.results) // 4
