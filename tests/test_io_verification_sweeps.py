"""Tests for persistence (repro.io), the equivalence-campaign harness,
and the design-space sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.hw.config import HardwareConfig
from repro.hw.sweeps import (
    sweep_butterfly_cores,
    sweep_conversion_cores,
    sweep_coprocessor_count,
)
from repro.hw.verification import run_campaign, run_configuration_matrix
from repro.io import (
    load_ciphertext,
    load_keyset,
    save_ciphertext,
    save_keyset,
)
from repro.params import mini, toy


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
        ct = toy_context.encrypt(Plaintext.zero(params.n, params.t),
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
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        with pytest.raises(EncodingError):
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


class TestKeysetIo:
    def test_roundtrip_and_interoperation(self, tmp_path, toy_context,
                                          toy_keys, rng):
        """Keys loaded from disk must decrypt and relinearise ciphertexts
        produced with the originals."""
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        loaded = load_keyset(path, params)

        assert np.array_equal(loaded.secret.coeffs, toy_keys.secret.coeffs)
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, loaded.public)
        assert toy_context.decrypt(ct, loaded.secret) == plain

        evaluator = Evaluator(toy_context)
        product = evaluator.multiply(ct, ct, loaded.relin)
        reference = evaluator.multiply(ct, ct, toy_keys.relin)
        assert toy_context.decrypt(product, loaded.secret) == \
            toy_context.decrypt(reference, toy_keys.secret)

    def test_truncated_file_rejected(self, tmp_path, toy_context,
                                     toy_keys):
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(EncodingError):
            load_keyset(path, params)


class TestVerificationHarness:
    def test_campaign_passes_on_default_config(self):
        result = run_campaign(params=toy(), operations=4, seed=5)
        assert result.passed
        assert result.operations == 4
        assert "PASS" in result.report()

    def test_campaign_counts_all_matches(self):
        result = run_campaign(params=toy(), operations=6, seed=6)
        assert result.bit_exact_matches == 6
        assert result.decrypt_matches == 6

    def test_configuration_matrix_all_pass(self):
        results = run_configuration_matrix(operations=2, seed=9)
        assert len(results) == 4
        assert all(result.passed for result in results)

    def test_design_knobs_do_not_change_results(self):
        """The core architectural claim behind the matrix: every corner
        produces identical ciphertexts, only timing differs."""
        base = run_campaign(params=toy(), operations=2, seed=11)
        pinned = run_campaign(
            params=toy(),
            config=replace(HardwareConfig(), relin_key_on_chip=True),
            operations=2, seed=11,
        )
        assert base.passed and pinned.passed


class TestSweeps:
    def test_coprocessor_count_scales_throughput(self, paper_params):
        points = sweep_coprocessor_count(paper_params, counts=(1, 2, 4))
        rates = [p.throughput_per_second for p in points]
        assert rates[1] == pytest.approx(2 * rates[0])
        assert rates[2] == pytest.approx(4 * rates[0])

    def test_f1_projection_exceeds_2000_per_second(self, paper_params):
        """Paper Sec. VII: ten coprocessors on an Amazon F1 instance."""
        points = sweep_coprocessor_count(paper_params, counts=(10,))
        assert points[0].throughput_per_second > 2000

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
        ct = toy_context.encrypt(Plaintext.zero(params.n, params.t),
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

    def test_keyset_truncations_fail_closed(self, tmp_path, toy_context,
                                            toy_keys):
        from repro.errors import ReproError

        params = toy_context.params
        path = tmp_path / "fuzz_keys.bin"
        save_keyset(path, toy_keys, params)
        blob = path.read_bytes()
        target = tmp_path / "trunc.bin"
        cuts = sorted(set(range(0, 16)) |
                      set(range(16, len(blob), 211)) | {len(blob) - 1})
        for cut in cuts:
            target.write_bytes(blob[:cut])
            with pytest.raises(ReproError):
                load_keyset(target, params)

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

    def test_implausible_relin_component_count(self, tmp_path,
                                               toy_context, toy_keys):
        import json as _json
        import struct as _struct

        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        payload = blob[12 + header_len:]
        for bad in (-1, 10 ** 6, "lots", None, True):
            header["relin_components"] = bad
            head = _json.dumps(header, sort_keys=True).encode()
            path.write_bytes(b"REPROFV1" + _struct.pack("<I", len(head))
                             + head + payload)
            with pytest.raises(EncodingError, match="implausible"):
                load_keyset(path, params)


class TestKeyMaterialWireV2:
    """Key wire format v2: NTT-domain persistence with per-digit digests.

    The acceptance contract is *zero* key-material transforms on load —
    the per-digit NTTs every load used to re-derive are paid once at
    save time — and a header that is not version 2 is rejected.
    """

    @staticmethod
    def _transform_delta(fn):
        from repro.nttmath.batch import transform_counts

        before = transform_counts()
        result = fn()
        delta = {k: v - before[k] for k, v in transform_counts().items()}
        return result, delta

    def test_v2_load_performs_zero_key_transforms(self, tmp_path,
                                                  toy_context, toy_keys):
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        loaded, delta = self._transform_delta(
            lambda: load_keyset(path, params))
        assert all(v == 0 for v in delta.values()), delta
        assert np.array_equal(loaded.secret.ntt_rows,
                              toy_keys.secret.ntt_rows)
        assert np.array_equal(loaded.public.p0_ntt, toy_keys.public.p0_ntt)
        assert np.array_equal(loaded.public.p1_ntt, toy_keys.public.p1_ntt)
        for (b, a), (rb, ra) in zip(loaded.relin.pairs,
                                    toy_keys.relin.pairs, strict=True):
            assert np.array_equal(b, rb) and np.array_equal(a, ra)

    @staticmethod
    def _strip_version(path):
        """Rewrite a wire file with ``version`` dropped from its header."""
        import json as _json
        import struct as _struct

        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        del header["version"]
        head = _json.dumps(header, sort_keys=True).encode()
        path.write_bytes(b"REPROFV1" + _struct.pack("<I", len(head))
                         + head + blob[12 + header_len:])

    def test_relin_digest_corruption_rejected(self, tmp_path, toy_context,
                                              toy_keys):
        params = toy_context.params
        path = tmp_path / "keys.bin"
        save_keyset(path, toy_keys, params)
        blob = bytearray(path.read_bytes())
        header_len = int.from_bytes(blob[8:12], "little")
        k_q, n = params.k_q, params.n
        # First byte of the first relin pair: past secret + public +
        # the three persisted NTT caches.
        pos = 12 + header_len + 8 * n + 5 * 8 * k_q * n
        blob[pos] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(EncodingError, match="digest"):
            load_keyset(path, params)
        # Losing ``version`` must not switch the digest checks off: an
        # intact file without it is rejected too.
        save_keyset(path, toy_keys, params)
        self._strip_version(path)
        with pytest.raises(EncodingError, match="version None"):
            load_keyset(path, params)

    def test_galois_bundle_roundtrip_zero_transforms(self, tmp_path,
                                                     toy_context,
                                                     toy_keys, rng):
        from repro.fv.galois import GaloisEngine
        from repro.io import load_galois_keys, save_galois_keys

        params = toy_context.params
        engine = GaloisEngine(toy_context)
        keys = engine.summation_keygen(toy_keys.secret)
        path = tmp_path / "galois.bin"
        save_galois_keys(path, keys, params)
        loaded, delta = self._transform_delta(
            lambda: load_galois_keys(path, params))
        assert all(v == 0 for v in delta.values()), delta
        # The summation bundle round-trips whole: labels (in order,
        # including the composite conjugation key), elements and the
        # engine's uint32 rows.
        assert list(loaded) == list(keys)
        assert "conjugate_quarter" in loaded
        for label, key in keys.items():
            assert loaded[label].element == key.element
            for got, want in zip(loaded[label].pairs, key.pairs,
                                 strict=True):
                for got_rows, want_rows in zip(got, want, strict=True):
                    assert got_rows.dtype == want_rows.dtype == np.uint32
                    assert np.array_equal(got_rows, want_rows)
        # On disk the rows are the format's 64-bit words, digested as
        # such: compact rows changed neither bytes nor digests.
        import hashlib
        import json as _json

        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        assert len(blob) - 12 - header_len == sum(
            2 * 8 * row.size for key in keys.values()
            for row, _ in key.pairs)
        for entry, key in zip(header["entries"], keys.values(),
                              strict=True):
            assert entry["digests"] == [
                hashlib.sha256(b"ntt:" + b.astype("<i8").tobytes()
                               + a.astype("<i8").tobytes()
                               ).hexdigest()[:16]
                for b, a in key.pairs]

        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        ct = toy_context.encrypt(plain, toy_keys.public)
        got = engine.rotate(ct, 1, loaded)
        want = engine.rotate(ct, 1, keys)
        assert toy_context.decrypt(got, toy_keys.secret) == \
            toy_context.decrypt(want, toy_keys.secret)

    def test_galois_bad_label_rejected(self, tmp_path, toy_context,
                                       toy_keys):
        import json as _json
        import struct as _struct

        from repro.fv.galois import GaloisEngine
        from repro.io import load_galois_keys, save_galois_keys

        params = toy_context.params
        engine = GaloisEngine(toy_context)
        keys = engine.rotation_keygen(toy_keys.secret, [1])
        path = tmp_path / "galois.bin"
        save_galois_keys(path, keys, params)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = _json.loads(blob[12:12 + header_len])
        header["entries"][0]["label"] = "sideways"
        head = _json.dumps(header, sort_keys=True).encode()
        path.write_bytes(b"REPROFV1" + _struct.pack("<I", len(head))
                         + head + blob[12 + header_len:])
        with pytest.raises(EncodingError, match="label"):
            load_galois_keys(path, params)
        save_galois_keys(path, keys, params)
        self._strip_version(path)
        with pytest.raises(EncodingError, match="version None"):
            load_galois_keys(path, params)

    def test_galois_rows_that_are_not_residues_rejected(self, tmp_path,
                                                        toy_context,
                                                        toy_keys):
        """A correctly digested row beyond its prime must not be cast
        down to the engine's 32-bit rows."""
        from repro.fv.galois import GaloisEngine
        from repro.io import load_galois_keys, save_galois_keys

        params = toy_context.params
        key = GaloisEngine(toy_context).rotation_keygen(
            toy_keys.secret, [1])[1]
        b_ntt, a_ntt = key.pairs[0]
        wide = b_ntt.astype(np.int64)
        wide[0, 0] += 1 << 32
        key.pairs[0] = (wide, a_ntt)
        path = tmp_path / "galois.bin"
        save_galois_keys(path, {1: key}, params)
        with pytest.raises(EncodingError, match="not residues"):
            load_galois_keys(path, params)
