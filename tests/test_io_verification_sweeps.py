"""Tests for persistence (repro.io), the equivalence-campaign harness,
and the design-space sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import Plaintext
from repro.hw.config import HardwareConfig
from repro.hw.sweeps import (
    sweep_butterfly_cores,
    sweep_conversion_cores,
    sweep_coprocessor_count,
)
from repro.hw.verification import run_campaign, run_configuration_matrix
from repro.io import MAGIC, load_ciphertext, save_ciphertext
from repro.params import mini
from scaffolding import toy


def _frame(header: bytes) -> bytes:
    """The wire framing around a raw header: magic, length, header."""
    return MAGIC + len(header).to_bytes(4, "little") + header


class TestCiphertextIo:
    def test_roundtrip(self, tmp_path, toy_context, toy_keys, rng):
        params = toy_context.params
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        path = tmp_path / "ct.bin"
        save_ciphertext(path, ct)
        restored = load_ciphertext(path, params)
        assert np.array_equal(restored.c0.residues, ct.c0.residues)
        assert toy_context.decrypt(restored, toy_keys.secret) == plain

    def test_wrong_parameters_rejected(self, tmp_path, toy_context,
                                       toy_keys):
        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.from_list([], params.n, params.t),
                                 toy_keys.public)
        path = tmp_path / "ct.bin"
        save_ciphertext(path, ct)
        with pytest.raises(ParameterError):
            load_ciphertext(path, mini())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 100)
        with pytest.raises(EncodingError):
            load_ciphertext(path, toy())

    def test_kind_mismatch_rejected(self, tmp_path, toy_context, toy_keys):
        import json as _json

        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.from_list([], params.n, params.t),
                                 toy_keys.public)
        path = tmp_path / "ct.bin"
        save_ciphertext(path, ct)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        header["kind"] = "keyset"
        path.write_bytes(_frame(_json.dumps(header).encode())
                         + blob[12 + header_len:])
        with pytest.raises(EncodingError, match="does not hold"):
            load_ciphertext(path, params)

    def test_roundtrip_property(self, tmp_path, toy_context, toy_keys):
        """Any encryptable plaintext survives the file roundtrip."""
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        params = toy_context.params

        @settings(max_examples=10, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture,
                                         HealthCheck.too_slow])
        @given(st.lists(st.integers(0, params.t - 1), min_size=4,
                        max_size=8))
        def check(coeffs):
            plain = Plaintext.from_list(coeffs, params.n, params.t)
            ct = toy_context.encrypt(plain, toy_keys.public)
            path = tmp_path / "prop.bin"
            save_ciphertext(path, ct)
            restored = load_ciphertext(path, params)
            assert toy_context.decrypt(restored, toy_keys.secret) == plain

        check()


class TestVerificationHarness:
    def test_campaign_passes_on_default_config(self):
        result = run_campaign(operations=4, seed=5)
        assert result.passed
        assert result.operations == 4
        assert "PASS" in result.report()

    def test_campaign_counts_all_matches(self):
        result = run_campaign(operations=6, seed=6)
        assert result.bit_exact_matches == 6
        assert result.decrypt_matches == 6

    def test_configuration_matrix_all_pass(self):
        results = run_configuration_matrix(operations=2)
        assert len(results) == 4
        assert all(result.passed for result in results)

    def test_design_knobs_do_not_change_results(self):
        """The core architectural claim behind the matrix: every corner
        produces identical ciphertexts, only timing differs."""
        base = run_campaign(operations=2, seed=11)
        pinned = run_campaign(
            config=replace(HardwareConfig(), relin_key_on_chip=True),
            operations=2, seed=11,
        )
        assert base.passed and pinned.passed


class TestSweeps:
    def test_coprocessor_count_scales_throughput(self, paper_params):
        points = sweep_coprocessor_count(paper_params)
        rates = [p.throughput_per_second for p in points]
        assert rates[1] == pytest.approx(2 * rates[0])
        assert rates[2] == pytest.approx(4 * rates[0])

    def test_f1_projection_exceeds_2000_per_second(self, paper_params):
        """Paper Sec. VII: ten coprocessors on an Amazon F1 instance."""
        points = sweep_coprocessor_count(paper_params)
        assert points[3].label == "10 coprocessor(s)"
        assert points[3].throughput_per_second > 2000

    def test_conversion_cores_reduce_latency(self, paper_params):
        points = sweep_conversion_cores(paper_params)
        latencies = [p.mult_seconds for p in points]
        assert latencies == sorted(latencies, reverse=True)

    def test_butterfly_sweep_monotone(self, paper_params):
        single, dual = sweep_butterfly_cores(paper_params)
        assert dual.mult_seconds < single.mult_seconds
        assert dual.resources.dsps > single.resources.dsps

    def test_rows_render(self, paper_params):
        for point in sweep_butterfly_cores(paper_params):
            assert "ms" in point.row()


class TestWireCorruptionSweep:
    """Seeded fuzz over the wire formats: corruption must fail *closed*.

    Every truncation prefix and every seeded bit flip of a saved file
    must either load back cleanly (the flip landed somewhere genuinely
    unchecked) or raise a :class:`repro.errors.ReproError` subclass —
    never a bare ``struct``/``json``/``unicode``/numpy internals error.
    """

    def _ciphertext_file(self, tmp_path, toy_context, toy_keys):
        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.from_list([], params.n, params.t),
                                 toy_keys.public)
        path = tmp_path / "fuzz_ct.bin"
        save_ciphertext(path, ct)
        return path, params

    def test_ciphertext_truncations_fail_closed(self, tmp_path,
                                                toy_context, toy_keys):
        from repro.errors import ReproError

        path, params = self._ciphertext_file(tmp_path, toy_context,
                                             toy_keys)
        blob = path.read_bytes()
        target = tmp_path / "trunc.bin"
        # Every framing boundary plus a stride across the payload.
        cuts = sorted(set(range(0, 16)) |
                      set(range(16, len(blob), 97)) | {len(blob) - 1})
        for cut in cuts:
            target.write_bytes(blob[:cut])
            with pytest.raises(ReproError):
                load_ciphertext(target, params)

    def test_seeded_bit_flips_never_leak_internals(self, tmp_path,
                                                   toy_context, toy_keys):
        from repro.errors import ReproError

        path, params = self._ciphertext_file(tmp_path, toy_context,
                                             toy_keys)
        blob = bytearray(path.read_bytes())
        target = tmp_path / "flip.bin"
        rng = np.random.default_rng(2026)
        for _ in range(64):
            pos = int(rng.integers(0, len(blob)))
            bit = 1 << int(rng.integers(0, 8))
            flipped = bytearray(blob)
            flipped[pos] ^= bit
            target.write_bytes(bytes(flipped))
            try:
                load_ciphertext(target, params)
            except ReproError:
                pass  # failed closed — the contract
            # Anything else (struct.error, JSONDecodeError, numpy
            # shape errors) propagates and fails the test.

    def test_v2_digest_catches_every_payload_flip(self, tmp_path,
                                                  toy_context, toy_keys):
        path, params = self._ciphertext_file(tmp_path, toy_context,
                                             toy_keys)
        blob = bytearray(path.read_bytes())
        header_len = int.from_bytes(blob[8:12], "little")
        payload_start = 12 + header_len
        rng = np.random.default_rng(7)
        target = tmp_path / "flip.bin"
        for _ in range(16):
            pos = payload_start + int(
                rng.integers(0, len(blob) - payload_start))
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << int(rng.integers(0, 8))
            target.write_bytes(bytes(flipped))
            with pytest.raises(EncodingError, match="digest"):
                load_ciphertext(target, params)

    def test_corrupt_header_length_field(self, tmp_path, toy_context,
                                         toy_keys):
        path, params = self._ciphertext_file(tmp_path, toy_context,
                                             toy_keys)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (2 ** 31).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(EncodingError, match="truncated"):
            load_ciphertext(path, params)

    def test_declared_part_count_is_checked(self, tmp_path, toy_context,
                                            toy_keys):
        """A three-part file cut to a valid two-part length, its digest
        recomputed, still fails on the header's part count."""
        import json as _json

        from repro.fv.evaluator import Evaluator
        from repro.io import _payload_digest

        params = toy_context.params
        ct = toy_context.encrypt(Plaintext.from_list([1], params.n, params.t),
                                 toy_keys.public)
        path = tmp_path / "raw.bin"
        save_ciphertext(path, Evaluator(toy_context).multiply_raw(ct, ct))
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        payload = blob[12 + header_len:][:-params.poly_bytes]
        assert header["parts"] == 3
        header["digest"] = _payload_digest(header["domain"], payload)
        path.write_bytes(_frame(_json.dumps(header).encode()) + payload)
        with pytest.raises(EncodingError, match="header declares 3"):
            load_ciphertext(path, params)

    @pytest.mark.parametrize("blob, match", [
        (MAGIC + b"\x07\x00", "header length missing"),
        (_frame(b"{not json"), "corrupt header"),
        (_frame(b"\xff\xfe{}"), "corrupt header"),
        (_frame(b"[1, 2]"), "not an object"),
    ], ids=["length", "json", "unicode", "non-object"])
    def test_each_framing_fault_fails_closed(self, tmp_path, blob, match):
        """Every fail-closed branch of the framing, through the loader
        that reads it (bad magic: ``test_bad_magic_rejected``; a header
        longer than the file: ``test_corrupt_header_length_field``)."""
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(EncodingError, match=match):
            load_ciphertext(path, toy())
