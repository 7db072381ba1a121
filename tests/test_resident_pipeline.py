"""End-to-end NTT residency: encrypt, wire format, cross-request cache.

The invariants of the resident pipeline PR:

* resident encrypt is the *same* encryption: for identical randomness
  it converts bit-for-bit to the legacy ciphertext, decrypts to the
  same plaintext, and measures the same noise;
* the versioned NTT-domain wire format round-trips resident operands
  without an inverse transform, rejects a payload whose domain flag
  was tampered with or that is not version 2;
* a serialized-resident operand reused across two programs performs
  **zero** coefficient-domain round-trips (the acceptance criterion),
  proved with exact transform-count telemetry;
* both executors' cross-request resident-operand caches are bounded,
  hit on reuse, and (for the simulated backend) price cache hits as
  zero-transfer in the lowered job stream.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.api import LocalBackend, ResidentOperandCache, Session, SimulatedBackend
from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.sampler import discrete_gaussian, uniform_ternary
from repro.io import MAGIC, load_ciphertext, save_ciphertext
from repro.params import mini, toy


def _rewrite_header(path: Path, out: Path, mutate) -> None:
    """Load a wire file, apply ``mutate`` to its JSON header, rewrite."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(MAGIC + struct.pack("<I", len(header_bytes))
                    + header_bytes + raw[12 + header_len:])


class TestResidentEncrypt:
    def test_resident_equals_legacy_bit_for_bit(self):
        params = mini()
        session = Session(params, seed=3)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 0, 1, 1], params.n, params.t)
        rng = np.random.default_rng(11)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        legacy = context.encrypt_with(plain, keys.public, u, e1, e2)
        resident = context.encrypt_with(plain, keys.public, u, e1, e2,
                                        resident=True)
        assert resident.ntt_resident and resident.domain == "ntt"
        assert legacy.domain == "coeff"
        back = context.to_coeff_ct(resident)
        for lp, rp in zip(legacy.parts, back.parts, strict=True):
            assert np.array_equal(lp.residues, rp.residues)

    def test_resident_decrypts_identically_same_noise(self):
        params = mini()
        session = Session(params, seed=5)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
        rng = np.random.default_rng(13)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        legacy = context.encrypt_with(plain, keys.public, u, e1, e2)
        resident = context.encrypt_with(plain, keys.public, u, e1, e2,
                                        resident=True)
        m1, n1 = context.decrypt_with_noise(legacy, keys.secret)
        m2, n2 = context.decrypt_with_noise(resident, keys.secret)
        assert np.array_equal(m1.coeffs, m2.coeffs)
        assert n1 == n2

    def test_resident_encrypt_performs_no_inverse_transforms(self):
        from repro.nttmath.batch import transform_counts

        params = mini()
        session = Session(params, seed=7)
        before = transform_counts()
        session.context.encrypt(session.encode(5), session.keys.public,
                                resident=True)
        after = transform_counts()
        assert after["inverse_rows"] == before["inverse_rows"]
        assert after["forward_calls"] == before["forward_calls"] + 1


class TestNttWireFormat:
    def test_resident_roundtrip_preserves_domain_and_bits(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=9)
        handle = session.encrypt([4, 5, 6], resident=True)
        ct = handle.node.cached
        path = tmp_path / "resident.ct"
        session.save_ciphertext(path, handle)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        for a, b in zip(ct.parts, restored.parts, strict=True):
            assert np.array_equal(a.residues, b.residues)
        assert list(session.decrypt(session.wrap(restored), size=3)) == \
            [4, 5, 6]

    def test_coefficient_roundtrip_is_version_2(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=11)
        ct = session.encrypt([7, 8]).ciphertext
        path = tmp_path / "coeff.ct"
        save_ciphertext(path, ct)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + header_len])
        assert header["version"] == 2
        assert header["domain"] == "coeff"
        restored = load_ciphertext(path, params)
        assert restored.domain == "coeff"

    def test_mislabelled_domain_is_rejected(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=13)
        ct = session.encrypt([1, 2]).ciphertext
        path = tmp_path / "coeff.ct"
        save_ciphertext(path, ct)
        evil = tmp_path / "mislabelled.ct"
        _rewrite_header(path, evil,
                        lambda h: h.__setitem__("domain", "ntt"))
        with pytest.raises(EncodingError, match="mislabelled|digest"):
            load_ciphertext(evil, params)

    def test_unknown_domain_and_future_version_rejected(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=15)
        path = tmp_path / "base.ct"
        save_ciphertext(path, session.encrypt([3]).ciphertext)
        weird = tmp_path / "weird.ct"
        _rewrite_header(path, weird,
                        lambda h: h.__setitem__("domain", "spectral"))
        with pytest.raises(EncodingError, match="domain"):
            load_ciphertext(weird, params)
        future = tmp_path / "future.ct"
        _rewrite_header(path, future,
                        lambda h: h.__setitem__("version", 99))
        with pytest.raises(EncodingError, match="version"):
            load_ciphertext(future, params)
        # A header that lost ``version`` (alone, or with the other v2
        # fields — the retired v1 shape) must not skip the digest and
        # domain checks: an NTT payload would load as coefficients.
        for lost in (("version",), ("version", "domain", "digest")):
            stripped = tmp_path / "stripped.ct"
            _rewrite_header(
                path, stripped,
                lambda h, lost=lost: [h.pop(key) for key in lost])
            with pytest.raises(EncodingError, match="version None"):
                load_ciphertext(stripped, params)

    def test_mixed_domain_ciphertext_refuses_the_wire(self):
        from repro.fv.ciphertext import Ciphertext

        params = mini(t=257)
        session = Session(params, seed=19)
        ct = session.encrypt([1]).ciphertext
        mixed = Ciphertext((ct.c0, ct.c1.to_ntt()), params)
        assert mixed.domain == "mixed"
        with pytest.raises(ParameterError, match="mixed"):
            mixed.to_wire_bytes()


class TestZeroRoundTripAcrossPrograms:
    def test_serialized_resident_operand_never_leaves_ntt_domain(
            self, tmp_path):
        """The acceptance criterion: a serialized-resident operand
        reused across two programs performs zero coefficient-domain
        round-trips. Transform telemetry is exact: each run transforms
        only its fresh plaintext constant (k_q rows forward), never the
        operand (no forward: it arrived resident; no inverse: outputs
        are emitted resident)."""
        params = mini(t=257)
        session = Session(params, seed=21)
        k = params.k_q
        source = session.encrypt([1, 2, 3, 4], resident=True)
        path = tmp_path / "operand.ct"
        session.save_ciphertext(path, source)
        operand = session.load_ciphertext(path)
        assert operand.node.cached.ntt_resident
        # verify=False: the assertion is about *execution*
        # transform economy; the verify phase's noise probe has
        # its own traced transforms.
        backend = LocalBackend(session, resident_outputs=True,
                               verify=False)
        first = backend.run(session.compile(operand * 3, name="p1",
                                            check=False))
        counts1 = dict(backend.last_transform_counts)
        second = backend.run(session.compile(operand * 5, name="p2",
                                             check=False))
        counts2 = dict(backend.last_transform_counts)
        for counts in (counts1, counts2):
            assert counts["forward_rows"] == k, counts
            assert counts["inverse_rows"] == 0, counts
        assert list(first.decrypt("out", size=4)) == [3, 6, 9, 12]
        assert list(second.decrypt("out", size=4)) == [5, 10, 15, 20]

    def test_lazy_resident_handle_saves_in_ntt_domain(self, tmp_path):
        """Regression: save_ciphertext materialises lazy handles
        through a resident-emitting executor, so a resident expression
        chain reaches the wire without the default output boundary's
        inverse transform."""
        params = mini(t=257)
        session = Session(params, seed=33)
        lazy = session.encrypt([6, 7], resident=True) * 3
        path = tmp_path / "lazy.ct"
        session.save_ciphertext(path, lazy)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [18, 21]

    def test_resident_outputs_serialise_without_conversion(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=23)
        backend = LocalBackend(session, resident_outputs=True)
        h = session.encrypt([2, 4], resident=True)
        result = backend.run(session.compile(h * 2, name="emit",
                                             check=False))
        out_ct = result.ciphertext("out")
        assert out_ct.ntt_resident
        path = tmp_path / "reply.ct"
        save_ciphertext(path, out_ct)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [4, 8]


class _Node:
    """Weak-referenceable stand-in for an ExprNode in cache unit tests."""


class TestLocalResidentCache:
    def test_boundary_converted_output_restores_from_cache(self):
        params = mini(t=257)
        session = Session(params, seed=25)
        k = params.k_q
        # verify=False keeps the transform ledger to execution
        # work only (the verify phase transforms on its own).
        backend = LocalBackend(session, verify=False)
        a = session.encrypt([5, 6, 7, 8], resident=True)
        inter = a * 3
        backend.run(session.compile(inter, name="first", check=False))
        # The boundary converted `inter` to coefficients; its resident
        # form survives in the cache.
        assert backend.telemetry["resident_cache"]["entries"] >= 1
        restored = backend.run(session.compile(inter * 2, name="second",
                                               check=False))
        telemetry = backend.telemetry["resident_cache"]
        assert telemetry["hits"] >= 1
        assert telemetry["last_run_restores"] >= 1
        # Only the new plaintext constant transformed forward — the
        # restored operand did not.
        assert backend.last_transform_counts["forward_rows"] == k

        # Degrade path: the same requests through a cache too small to
        # keep `inter` across an unrelated program. The evicted operand
        # is transformed forward again and the answer is bit-identical.
        session = Session(params, seed=25)
        small = LocalBackend(session, verify=False, resident_cache_limit=2)
        inter = session.encrypt([5, 6, 7, 8], resident=True) * 3
        small.run(session.compile(inter, name="first", check=False))
        other = session.encrypt([1], resident=True) * 5
        small.run(session.compile(other, name="other", check=False))
        assert small.resident_cache.evictions == 2
        assert inter.node not in small.resident_cache
        evicted = small.run(session.compile(inter * 2, name="second",
                                            check=False))
        assert small.last_cache_restores == 0
        assert small.last_transform_counts["forward_rows"] > k
        for want, got in zip(restored.ciphertext("out").parts,
                             evicted.ciphertext("out").parts, strict=True):
            assert np.array_equal(want.residues, got.residues)

    def test_cache_is_bounded_with_fifo_eviction(self):
        cache = ResidentOperandCache(limit=2)
        nodes = [_Node() for _ in range(3)]
        for node in nodes:
            cache.put(node, node)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert nodes[0] not in cache
        assert nodes[1] in cache and nodes[2] in cache
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["limit"] == 2

    def test_cache_entries_die_with_their_nodes(self):
        """The cache keys nodes weakly: dropping every handle to an
        operand frees its expression graph, and the entry (with its
        pinned ciphertext) disappears via the weakref callback."""
        import gc

        cache = ResidentOperandCache(limit=4)
        node = _Node()
        cache.put(node, "resident-form")
        assert len(cache) == 1
        del node
        gc.collect()
        assert len(cache) == 0

    def test_cache_identity_guard_and_refresh(self):
        cache = ResidentOperandCache(limit=4)
        node = _Node()
        cache.put(node, "first")
        cache.put(node, "second")  # refresh, not a second entry
        assert len(cache) == 1
        assert cache.get(node) == "second"
        assert cache.get(_Node()) is None
        assert cache.misses == 1 and cache.hits == 1
        with pytest.raises(ValueError):
            ResidentOperandCache(limit=0)


class TestSimulatedResidentCache:
    def test_repeat_run_prices_inputs_as_zero_transfer(self):
        params = toy(t=257)
        session = Session(params, seed=27)
        a = session.encrypt([1, 2, 3])
        b = session.encrypt([4, 5, 6])
        program = session.compile(a * b, name="sim", check=False)
        backend = SimulatedBackend.over_runtime(params)
        first = backend.run(program, requests=3)
        second = backend.run(program, requests=3)
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert backend.telemetry["resident_cache"]["hits"] == 2
        # Lowered pricing: the cached lowering uploads strictly less.
        cold = program.lower()
        warm = program.lower(resident_inputs=program.inputs)
        assert sum(op.polys_in for op in warm) < \
            sum(op.polys_in for op in cold)
        assert sum(op.cached_inputs for op in warm) == 2
        assert sum(op.cached_inputs for op in cold) == 0

    def test_shared_operand_across_two_programs_hits(self):
        params = toy(t=257)
        session = Session(params, seed=29)
        shared = session.encrypt([7, 7, 7])
        other = session.encrypt([1, 0, 1])
        backend = SimulatedBackend.over_runtime(params)
        run1 = backend.run(session.compile(shared + other, name="one",
                                           check=False), requests=2)
        run2 = backend.run(session.compile(shared * 2, name="two",
                                           check=False), requests=2)
        assert run1.cache_hits == 0
        assert run2.cache_hits == 1  # `shared` is still server-resident
        assert run2.cache_misses == 0

    def test_sum_slots_charges_upload_once_with_cache(self):
        params = toy(t=257)
        session = Session(params, seed=31)
        h = session.encrypt([1, 2, 3, 4])
        program = session.compile(h.sum_slots(), name="reduce",
                                  check=False)
        warm = program.lower(resident_inputs=program.inputs)
        assert sum(op.polys_in for op in warm) == 0
        assert sum(op.cached_inputs for op in warm) == 1


class TestResidentMultiplyLoop:
    """PR 10 acceptance: a Mult-heavy resident program never
    materialises coefficients — proved by the round-trip telemetry —
    and decrypts to the cleartext product, across serial and threaded
    executors.
    """

    @pytest.mark.parametrize("executor", [None, ("threads", 4)])
    def test_mult_heavy_program_zero_roundtrips(self, executor):
        from repro.parallel import ExecutionConfig

        params = mini()
        session = Session(params, seed=41)
        a = session.encrypt([1, 2, 3, 4], resident=True)
        b = session.encrypt([5, 6, 7, 8], resident=True)
        c = session.encrypt([2, 2, 2, 2], resident=True)
        d = session.encrypt([3, 1, 3, 1], resident=True)
        program = session.compile((a * b) * (c * d), name="mult-heavy",
                                  check=False)
        config = (ExecutionConfig(mode=executor[0], workers=executor[1])
                  if executor else None)
        backend = LocalBackend(session, verify=False,
                               resident_outputs=True, executor=config)
        try:
            result = backend.run(program)
        finally:
            if executor:
                # A live pool holds BLAS at one thread, process-wide.
                backend.executor.close()
        counts = backend.last_transform_counts
        assert counts["roundtrip_rows"] == 0
        assert counts["roundtrip_calls"] == 0
        assert result.ciphertext("out").ntt_resident

        # mini() encodes coefficients over t = 2: the cleartext result
        # is the polynomial product of the four inputs mod 2.
        want = np.array([1])
        for coeffs in ([1, 2, 3, 4], [5, 6, 7, 8], [2, 2, 2, 2],
                       [3, 1, 3, 1]):
            want = np.convolve(want, coeffs) % 2
        got = np.asarray(session.decrypt(result.handle("out"),
                                         size=len(want)))
        assert np.array_equal(got, want)

    def test_resident_inputs_consumed_without_conversion(self):
        params = mini()
        session = Session(params, seed=43)
        a = session.encrypt([9, 8, 7], resident=True)
        b = session.encrypt([1, 2, 3], resident=True)
        program = session.compile(a * b, name="one-mult", check=False)
        backend = LocalBackend(session, verify=False)
        backend.run(program)
        counts = backend.last_transform_counts
        assert counts["roundtrip_rows"] == 0
        assert counts["roundtrip_calls"] == 0
