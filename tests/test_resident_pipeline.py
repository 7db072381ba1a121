"""End-to-end evaluation domain: encrypt, wire format, the door.

The invariants of the one-domain pipeline:

* encryption is born in the evaluation domain and is still the
  textbook encryption: for identical randomness its coefficients are
  :class:`~repro.fv.reference.TextbookFv`'s bit for bit, and it decrypts
  to the same plaintext with the same noise as the big-integer oracle;
* the versioned NTT-domain wire format round-trips ciphertexts without
  an inverse transform; a coefficient payload from outside loads
  through the door to the same evaluation-domain residues; a payload
  whose domain flag was tampered with or that is not version 2 is
  rejected;
* an operand reused across two programs, or fed through a Mult-heavy
  program, pays only its kernels' transforms — proved with exact
  transform-count telemetry;
* the simulated executor's cross-request resident operands are
  bounded (FIFO), held weakly, hit on reuse, and priced as
  zero-transfer in the lowered job stream.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.api import LocalBackend, Session, SimulatedBackend
from repro.api.simulated import RESIDENT_LIMIT
from repro.errors import EncodingError, ParameterError
from repro.fv.encoder import Plaintext
from repro.fv.reference import TextbookFv, decrypt_with_noise_bigint
from repro.fv.sampler import discrete_gaussian, uniform_ternary
from repro.io import MAGIC, load_ciphertext, save_ciphertext
from repro.params import mini
from scaffolding import toy


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
        """Against the textbook oracle fed the same randomness: the
        evaluation-domain ciphertext's coefficients are the textbook
        ciphertext's."""
        params = mini()
        session = Session(params, seed=3)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 0, 1, 1], params.n, params.t)
        rng = np.random.default_rng(11)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        ct = context.encrypt_with(plain, keys.public, u, e1, e2)
        assert ct.ntt_resident and ct.domain == "ntt"
        textbook = TextbookFv(params)
        want = textbook.encrypt_with(
            plain, textbook.poly_from_rns(keys.public.p0),
            textbook.poly_from_rns(keys.public.p1), u, e1, e2)
        assert textbook.ciphertext_from_rns(ct) == want

    def test_resident_decrypts_identically_same_noise(self):
        """The RNS decryption of an evaluation-domain ciphertext is the
        big-integer oracle's, plaintext and noise norm alike, and the
        textbook decryption agrees."""
        params = mini()
        session = Session(params, seed=5)
        context, keys = session.context, session.keys
        plain = Plaintext.from_list([1, 1, 0, 1], params.n, params.t)
        rng = np.random.default_rng(13)
        u = uniform_ternary(rng, params.n)
        e1 = discrete_gaussian(rng, params.n, params.sigma)
        e2 = discrete_gaussian(rng, params.n, params.sigma)
        ct = context.encrypt_with(plain, keys.public, u, e1, e2)
        m1, n1 = context.decrypt_with_noise(ct, keys.secret)
        m2, n2 = decrypt_with_noise_bigint(context, ct, keys.secret)
        assert np.array_equal(m1.coeffs, m2.coeffs)
        assert n1 == n2
        textbook = TextbookFv(params)
        assert textbook.decrypt(textbook.ciphertext_from_rns(ct),
                                textbook.poly_from_rns(keys.secret.rns)) \
            == m1 == plain

    def test_resident_encrypt_performs_no_inverse_transforms(self):
        from repro.nttmath.batch import transform_counts

        params = mini()
        session = Session(params, seed=7)
        before = transform_counts()
        session.context.encrypt(session.encode(5), session.keys.public)
        after = transform_counts()
        assert after["inverse_rows"] == before["inverse_rows"]
        assert after["forward_calls"] == before["forward_calls"] + 1


class TestNttWireFormat:
    def test_resident_roundtrip_preserves_domain_and_bits(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=9)
        handle = session.encrypt([4, 5, 6])
        ct = handle.node.cached
        path = tmp_path / "resident.ct"
        save_ciphertext(path, handle.ciphertext)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        for a, b in zip(ct.parts, restored.parts, strict=True):
            assert np.array_equal(a.residues, b.residues)
        assert list(session.decrypt(session.wrap(restored), size=3)) == \
            [4, 5, 6]

    def test_coefficient_roundtrip_is_version_2(self, tmp_path):
        """The session writes ``ntt``; a coefficient-tagged file from
        outside (here the coefficient form of the same ciphertext)
        loads through the door to the same evaluation-domain residues
        as the original."""
        params = mini(t=257)
        session = Session(params, seed=11)
        handle = session.encrypt([7, 8])
        ct = handle.ciphertext

        def header(path):
            raw = path.read_bytes()
            (header_len,) = struct.unpack("<I", raw[8:12])
            return json.loads(raw[12:12 + header_len])

        ntt_path = tmp_path / "ntt.ct"
        save_ciphertext(ntt_path, handle.ciphertext)
        assert header(ntt_path)["domain"] == "ntt"
        path = tmp_path / "coeff.ct"
        save_ciphertext(path, ct.to_coeff())
        assert header(path)["version"] == 2
        assert header(path)["domain"] == "coeff"
        restored = load_ciphertext(path, params)
        assert restored.domain == "ntt"
        for a, b in zip(ct.parts, restored.parts, strict=True):
            assert np.array_equal(a.residues, b.residues)
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [7, 8]

    def test_mislabelled_domain_is_rejected(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=13)
        ct = session.encrypt([1, 2]).ciphertext
        for form, lie in ((ct.to_coeff(), "ntt"), (ct, "coeff")):
            path = tmp_path / "honest.ct"
            save_ciphertext(path, form)
            evil = tmp_path / "mislabelled.ct"
            _rewrite_header(path, evil,
                            lambda h, lie=lie: h.__setitem__("domain", lie))
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
        """A ciphertext's parts share one domain: a mixed one is refused
        when it is built, so it can never reach the wire."""
        from repro.fv.ciphertext import Ciphertext

        params = mini(t=257)
        session = Session(params, seed=19)
        ct = session.encrypt([1]).ciphertext
        with pytest.raises(ParameterError, match="different domains"):
            Ciphertext((ct.to_coeff().c0, ct.c1), params)


class TestZeroRoundTripAcrossPrograms:
    def test_serialized_resident_operand_never_leaves_ntt_domain(
            self, tmp_path):
        """A serialized operand reused across two programs never
        visits the coefficient domain. Transform telemetry is exact:
        each run transforms only its fresh plaintext constant (k_q rows
        forward), never the operand (no forward: it loads in the
        evaluation domain; no inverse: outputs stay there)."""
        params = mini(t=257)
        session = Session(params, seed=21)
        k = params.k_q
        source = session.encrypt([1, 2, 3, 4])
        path = tmp_path / "operand.ct"
        save_ciphertext(path, source.ciphertext)
        operand = session.wrap(load_ciphertext(path, params))
        assert operand.node.cached.ntt_resident
        backend = LocalBackend(session)
        first = backend.run(session.compile(operand * 3, name="p1",
                                            check=False))
        counts1 = _execution_counts(backend)
        second = backend.run(session.compile(operand * 5, name="p2",
                                             check=False))
        counts2 = _execution_counts(backend)
        for counts in (counts1, counts2):
            assert counts["forward_rows"] == k, counts
            assert counts["inverse_rows"] == 0, counts
        assert list(first.decrypt("out", size=4)) == [3, 6, 9, 12]
        assert list(second.decrypt("out", size=4)) == [5, 10, 15, 20]

    def test_lazy_resident_handle_saves_in_ntt_domain(self, tmp_path):
        """Regression: a lazy handle materialises in the evaluation
        domain and is written without an inverse transform."""
        params = mini(t=257)
        session = Session(params, seed=33)
        lazy = session.encrypt([6, 7]) * 3
        path = tmp_path / "lazy.ct"
        save_ciphertext(path, lazy.ciphertext)
        restored = load_ciphertext(path, params)
        assert restored.ntt_resident
        assert list(session.decrypt(session.wrap(restored), size=2)) == \
            [18, 21]

    def test_resident_outputs_serialise_without_conversion(self, tmp_path):
        params = mini(t=257)
        session = Session(params, seed=23)
        backend = LocalBackend(session)
        h = session.encrypt([2, 4])
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

    def test_resident_inputs_are_bounded_fifo(self):
        """One backend holds the last 64 INPUT operands it ingested:
        after 65 single-input programs the first has been evicted and
        the 65th is still resident."""
        params = toy(t=257)
        session = Session(params, seed=31)
        programs = [session.compile(session.encrypt([i]) * 2,
                                    name=f"p{i}", check=False)
                    for i in range(RESIDENT_LIMIT + 1)]
        backend = SimulatedBackend.over_runtime(params)
        for program in programs:
            assert backend.run(program).cache_misses == 1
        assert backend.run(programs[0]).cache_hits == 0
        assert backend.run(programs[-1]).cache_hits == 1

    def test_resident_inputs_are_held_weakly(self):
        """Running an input does not keep it alive: once the client
        drops every handle, the expression graph is collected."""
        import gc
        import weakref

        params = toy(t=257)
        session = Session(params, seed=37)
        handle = session.encrypt([3, 1, 4])
        program = session.compile(handle * 2, name="weak", check=False)
        backend = SimulatedBackend.over_runtime(params)
        run = backend.run(program)
        assert run.cache_misses == 1
        node = weakref.ref(program.inputs[0])
        del handle, program, run
        gc.collect()
        assert node() is None

    def test_sum_slots_charges_upload_once_with_cache(self):
        params = toy(t=257)
        session = Session(params, seed=31)
        h = session.encrypt([1, 2, 3, 4])
        program = session.compile(h.sum_slots(), name="reduce",
                                  check=False)
        warm = program.lower(resident_inputs=program.inputs)
        assert sum(op.polys_in for op in warm) == 0
        assert sum(op.cached_inputs for op in warm) == 1


def _execution_counts(backend) -> dict[str, int]:
    """The last run's transform counts less its output verification's
    (the noise probe has its own traced transforms)."""
    (verify,) = [s for s in backend.last_trace.spans("phase")
                 if s.name == "verify_outputs"]
    return {key: value - verify.attrs["transforms"].get(key, 0)
            for key, value in backend.last_transform_counts.items()}


def _mult_rows(params) -> tuple[int, int]:
    """(forward, inverse) rows of one Mult of two fresh operands: the
    lift's k_p forward / k_q inverse rows per part, Scale's inverse of
    three products over the full basis, relinearisation's k_q^2
    broadcast rows and the forward transform of (c0, c1)."""
    return (4 * params.k_p + params.k_q ** 2 + 2 * params.k_q,
            4 * params.k_q + 3 * params.k_total)


class TestResidentMultiplyLoop:
    """A Mult-heavy program never materialises coefficients outside its
    kernels — every transform row it pays is a lift, Scale or key-switch
    row — and decrypts to the cleartext product, across serial and
    threaded executors.
    """

    @pytest.mark.parametrize("executor", [None, ("threads", 4)])
    def test_mult_heavy_program_zero_roundtrips(self, executor):
        from repro.parallel import ExecutionConfig

        params = mini()
        session = Session(params, seed=41)
        a = session.encrypt([1, 2, 3, 4])
        b = session.encrypt([5, 6, 7, 8])
        c = session.encrypt([2, 2, 2, 2])
        d = session.encrypt([3, 1, 3, 1])
        program = session.compile((a * b) * (c * d), name="mult-heavy",
                                  check=False)
        config = (ExecutionConfig(mode=executor[0], workers=executor[1])
                  if executor else None)
        backend = LocalBackend(session, executor=config)
        try:
            result = backend.run(program)
        finally:
            if executor:
                # A live pool holds BLAS at one thread, process-wide.
                backend.executor.close()
        counts = _execution_counts(backend)
        forward, inverse = _mult_rows(params)
        assert (counts["forward_rows"], counts["inverse_rows"]) == \
            (3 * forward, 3 * inverse)
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
        a = session.encrypt([9, 8, 7])
        b = session.encrypt([1, 2, 3])
        program = session.compile(a * b, name="one-mult", check=False)
        backend = LocalBackend(session)
        backend.run(program)
        counts = _execution_counts(backend)
        assert (counts["forward_rows"], counts["inverse_rows"]) == \
            _mult_rows(params)
