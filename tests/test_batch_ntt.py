"""Batched NTT engine and NTT-resident executor properties.

* the gemm-based :class:`~repro.nttmath.batch.BasisTransformer` and the
  dispatching entry points (``ntt_rows`` / ``intt_rows`` /
  ``intt_rows_scaled`` / ``ntt_broadcast_rows``) are bit-exact against
  the single-prime ``NegacyclicTransformer(n, p)`` oracle and the
  paper-literal ``ntt_iterative`` across ring sizes and basis shapes;
* the fused digit transform and the per-channel-scaled inverse equal
  their compose-by-hand definitions;
* the NTT-resident ``LocalBackend`` decrypts to the cleartext result.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import LocalBackend, Session
from repro.fv.galois import GaloisEngine, apply_galois_rows
from repro.nttmath.batch import (
    _LIMB_BITS,
    _LIMBS,
    _MAX_INPUT,
    _geometry,
    _limbs_exact,
    basis_transformer,
    intt_rows,
    intt_rows_scaled,
    ntt_broadcast_rows,
    ntt_rows,
)
from repro.nttmath.ntt import NegacyclicTransformer, intt_iterative, ntt_iterative
from repro.nttmath.primes import find_ntt_primes
from repro.params import mini
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import basis_for
from scaffolding import toy

#: (n, k) shapes exercised by the equivalence tests: small/odd mixes of
#: ring degree and basis size, including single-limb and non-square n.
SHAPES = [(64, 1), (64, 3), (128, 2), (256, 5), (512, 4)]

fast_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _basis(n, k):
    return tuple(find_ntt_primes(30, n, k))


def _oracle_forward(primes, mat):
    """Per-row reference transform, called directly (one row per prime)."""
    n = mat.shape[-1]
    return np.stack([NegacyclicTransformer(n, p).forward(row)
                     for p, row in zip(primes, mat, strict=True)])


def _oracle_inverse(primes, mat):
    n = mat.shape[-1]
    return np.stack([NegacyclicTransformer(n, p).inverse(row)
                     for p, row in zip(primes, mat, strict=True)])


class TestBatchedTransformEquivalence:
    @pytest.mark.parametrize("n,k", SHAPES)
    def test_forward_matches_per_row_and_iterative(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n * k)
        mat = rng.integers(0, bt.primes_col, size=(k, n))
        got = bt.forward(mat)
        assert np.array_equal(ntt_rows(primes, mat),
                              _oracle_forward(primes, mat))
        for row, p in enumerate(primes):
            tr = NegacyclicTransformer(n, p)
            per_row = tr.forward(mat[row])
            assert np.array_equal(got[row], per_row)
            twisted = [
                int(c) * int(psi) % p
                for c, psi in zip(mat[row], tr.psi_powers, strict=True)
            ]
            reference = ntt_iterative(twisted, p, tr.omega)
            assert got[row].tolist() == reference

    @pytest.mark.parametrize("n,k", SHAPES)
    def test_inverse_matches_per_row_and_roundtrips(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n + k)
        mat = rng.integers(0, bt.primes_col, size=(k, n))
        values = bt.forward(mat)
        back = bt.inverse(values)
        assert np.array_equal(back, mat)
        assert np.array_equal(intt_rows(primes, values),
                              _oracle_inverse(primes, values))
        for row, p in enumerate(primes):
            tr = NegacyclicTransformer(n, p)
            assert np.array_equal(back[row], tr.inverse(values[row]))
            # Plain (non-negacyclic) INTT agreement on the untwisted
            # transform ties the engine to paper Algorithm 1's inverse.
            plain = ntt_iterative(list(map(int, mat[row])), p, tr.omega)
            assert intt_iterative(plain, p, tr.omega) == \
                [int(v) for v in mat[row]]

    @pytest.mark.parametrize("n,k", [(64, 3), (256, 4)])
    def test_stacked_equals_individual(self, n, k):
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(5)
        stack = rng.integers(0, bt.primes_col, size=(4, k, n))
        fwd = bt.forward(stack)
        inv = bt.inverse(fwd)
        for j in range(4):
            assert np.array_equal(fwd[j], bt.forward(stack[j]))
        assert np.array_equal(inv, stack)

    @fast_settings
    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    def test_forward_property_random_rows(self, seed, shift):
        n, k = 128, 3
        primes = _basis(n, k)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(seed)
        mat = np.roll(rng.integers(0, bt.primes_col, size=(k, n)), shift,
                      axis=1) % bt.primes_col
        reference = _oracle_forward(primes, mat)
        assert np.array_equal(bt.forward(mat), reference)
        assert np.array_equal(ntt_rows(primes, mat), reference)

    def test_lazy_forward_is_congruent(self):
        params = mini()
        primes = params.q_primes
        bt = basis_transformer(primes, params.n)
        rng = np.random.default_rng(9)
        mat = rng.integers(0, bt.primes_col, size=(len(primes), params.n))
        canon = bt.forward(mat)
        lazy = bt.forward(mat, lazy=True)
        assert lazy.max() < 2 * max(primes)
        assert np.array_equal(lazy % bt.primes_col, canon)

    def test_broadcast_rows_equals_reduce_then_transform(self):
        params = mini()
        primes = params.q_primes
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 1 << 30, size=(5, params.n))
        got = ntt_broadcast_rows(primes, rows)
        primes_col = np.array(primes, dtype=np.int64)[:, None]
        tiled = rows[:, None, :] % primes_col[None, :, :]
        assert np.array_equal(got, ntt_rows(primes, tiled))
        for j in range(len(rows)):
            assert np.array_equal(got[j], _oracle_forward(primes, tiled[j]))

    def test_scaled_inverse_equals_compose(self):
        params = mini()
        primes = params.q_primes + params.p_primes
        bt = basis_transformer(primes, params.n)
        rng = np.random.default_rng(13)
        mat = rng.integers(0, bt.primes_col, size=(len(primes), params.n))
        constants = tuple(int(c) for c in rng.integers(1, 1 << 30,
                                                       len(primes)))
        got = intt_rows_scaled(primes, mat, constants)
        consts_col = np.array(
            [c % p for c, p in zip(constants, primes, strict=True)], dtype=np.int64
        )[:, None]
        expected = (intt_rows(primes, mat) * consts_col) % bt.primes_col
        assert np.array_equal(got, expected)
        oracle = (_oracle_inverse(primes, mat) * consts_col) % bt.primes_col
        assert np.array_equal(got, oracle)


class TestLargeRingEngine:
    """The generalised engine covers every supported n up to 32768.

    The acceptance bar of the large-ring PR: batched transforms stay
    bit-identical to the paper-literal ``ntt_iterative`` and the
    per-row ``NegacyclicTransformer`` at n = 8192, 16384, and 32768
    with 30-bit primes — the degrees the old four-step split either
    served with no headroom or silently refused.
    """

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_large_n_matches_per_row_and_iterative(self, n):
        primes = _basis(n, 2)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n)
        mat = rng.integers(0, bt.primes_col, size=(2, n))
        got = bt.forward(mat)
        assert np.array_equal(bt.inverse(got), mat)
        lazy = bt.forward(mat, lazy=True)
        assert lazy.max() < 2 * max(primes)
        assert np.array_equal(lazy % bt.primes_col, got)
        for row, p in enumerate(primes):
            tr = NegacyclicTransformer(n, p)
            assert np.array_equal(got[row], tr.forward(mat[row]))
        assert np.array_equal(ntt_rows(primes, mat),
                              _oracle_forward(primes, mat))
        assert np.array_equal(intt_rows(primes, got),
                              _oracle_inverse(primes, got))
        # Paper Algorithm 1, pure-Python, on one row: the ground truth.
        p = primes[0]
        tr = NegacyclicTransformer(n, p)
        twisted = [
            int(c) * int(psi) % p
            for c, psi in zip(mat[0], tr.psi_powers, strict=True)
        ]
        assert got[0].tolist() == ntt_iterative(twisted, p, tr.omega)

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    def test_large_n_broadcast_and_scaled_inverse(self, n):
        primes = _basis(n, 3)
        bt = basis_transformer(primes, n)
        rng = np.random.default_rng(n + 1)
        rows = rng.integers(0, 1 << 30, size=(2, n))
        got = ntt_broadcast_rows(primes, rows)
        primes_col = bt.primes_col
        tiled = rows[:, None, :] % primes_col[None]
        assert np.array_equal(got, ntt_rows(primes, tiled))
        assert np.array_equal(got[0], _oracle_forward(primes, tiled[0]))
        mat = rng.integers(0, primes_col, size=(3, n))
        constants = tuple(int(c) for c in rng.integers(1, 1 << 30, 3))
        scaled = intt_rows_scaled(primes, mat, constants)
        consts_col = np.array(
            [c % p for c, p in zip(constants, primes, strict=True)], dtype=np.int64
        )[:, None]
        assert np.array_equal(
            scaled, (intt_rows(primes, mat) * consts_col) % primes_col
        )
        assert np.array_equal(
            scaled, (_oracle_inverse(primes, mat) * consts_col) % primes_col
        )

    #: The engine's layout for every ring degree at a 30-bit max prime:
    #: (factors, canonical_in per stage). Only n = 16384's 128-point
    #: second stage canonicalises its lazy [0, 2q) input.
    GEOMETRY = {
        2: ((2, 1), (False, False)),
        4: ((2, 2), (False, False)),
        8: ((4, 2), (False, False)),
        16: ((4, 4), (False, False)),
        32: ((8, 4), (False, False)),
        64: ((8, 8), (False, False)),
        128: ((16, 8), (False, False)),
        256: ((16, 16), (False, False)),
        512: ((32, 16), (False, False)),
        1024: ((32, 32), (False, False)),
        2048: ((64, 32), (False, False)),
        4096: ((64, 64), (False, False)),
        8192: ((128, 64), (False, False)),
        16384: ((128, 128), (False, True)),
        32768: ((32, 32, 32), (False, False, False)),
    }

    def test_geometry_table_and_exactness(self):
        """The fixed layout per ring degree, and the two-limb bound it
        rests on: every stage's worst partial sum (plus the
        reduction's one-modulus overshoot) stays at or below 2^53 for
        the inputs it sees — lazy [0, 2q) past stage 0 unless it
        canonicalises. Sub-DFTs the split cannot carry are refused."""
        max_prime = (1 << 30) - 35
        rest = (1 << _LIMB_BITS) - 1
        for n, (factors, canonical) in self.GEOMETRY.items():
            g = _geometry(n, max_prime)
            assert g.factors == factors
            assert tuple(s.canonical_in for s in g.stages) == canonical
            assert tuple(s.length for s in g.stages) == factors
            for t, stage in enumerate(g.stages):
                lazy = t > 0 and not stage.canonical_in
                max_value = 2 * max_prime - 1 if lazy else _MAX_INPUT
                assert _limbs_exact(stage.length, max_value, max_prime)
                top = max_value >> (_LIMB_BITS * (_LIMBS - 1))
                worst = stage.length * (max_prime - 1) * (
                    top + (_LIMBS - 1) * rest
                )
                assert worst + max_prime <= 1 << 53
        for length in (256, 4096):
            assert not _limbs_exact(length, _MAX_INPUT, max_prime)


class TestRnsPolyAliasing:
    def test_constructor_does_not_mutate_caller_array(self):
        """Regression: ``residues %= primes`` used to write through to
        the caller's array whenever np.asarray returned it unchanged."""
        params = toy()
        basis = basis_for(params.q_primes)
        original = np.full((basis.size, params.n),
                           max(params.q_primes) + 5, dtype=np.int64)
        snapshot = original.copy()
        poly = RnsPoly(basis, original)
        assert np.array_equal(original, snapshot)
        assert poly.residues.max() < max(params.q_primes)

    def test_trusted_adopts_without_copy(self):
        params = toy()
        basis = basis_for(params.q_primes)
        rows = np.zeros((basis.size, params.n), dtype=np.int64)
        poly = RnsPoly.trusted(basis, rows)
        assert poly.residues is rows


class TestNttResidentBackend:
    def _rotation_heavy(self, session):
        a = session.encrypt(list(range(1, 9)))
        b = session.encrypt([2] * 8)
        return session.compile((a * b).sum_slots() + a, name="rot-heavy")

    def test_rotation_heavy_program_matches_cleartext(self):
        session = Session(mini(t=257), seed=21)
        backend = LocalBackend(session)
        result = backend.run(self._rotation_heavy(session))
        # t = 257 encodes coefficients, where the rotate-and-add ladder
        # is the trace: n times the constant coefficient (1 * 2 here).
        a = np.arange(1, 9)
        expected = a.copy()
        expected[0] += session.params.n * 2
        assert np.array_equal(result.decrypt("out", size=8),
                              expected % 257)

    def test_outputs_leave_in_evaluation_domain(self):
        params = mini(t=257)
        session = Session(params, seed=23)
        a = session.encrypt([1, 2, 3])
        program = session.compile(a.rotate(1) * 2, name="resident-out")
        result = LocalBackend(session).run(program)
        ct = result.handle("out").ciphertext
        assert ct.ntt_resident and ct.domain == "ntt"
        ct.to_wire_bytes()  # the NTT-domain wire, without conversion

    def test_plain_pool_caches_constant_transforms(self):
        params = mini(t=257)
        session = Session(params, seed=25)
        plain = session.encode(7)
        first = session.plain_ntt(plain)
        assert session.plain_ntt(plain) is first
        delta_first = session.plain_delta_ntt(plain)
        assert session.plain_delta_ntt(plain) is delta_first

    def test_resident_rotation_bit_exact(self):
        params = mini(t=257)
        session = Session(params, seed=27)
        context = session.context
        engine = GaloisEngine(context)
        keys = session.keys
        rot = engine.rotation_keygen(keys.secret, [2])
        ct = session.encrypt([5, 6, 7]).ciphertext
        rotated = engine.apply(ct, rot[2])
        assert rotated.ntt_resident
        assert GaloisEngine.apply_resident is GaloisEngine.apply
        # In the evaluation domain tau_g is a slot gather: the same
        # residues as the coefficient automorphism transformed forward.
        g = rot[2].element
        coeff = ct.to_coeff()
        assert np.array_equal(
            engine._tau(ct.c0, g).residues,
            ntt_rows(params.q_primes, apply_galois_rows(
                coeff.c0.residues, context.q_basis.primes_col, params.n,
                g)))
        # t = 257 encodes coefficients: the rotation decrypts to tau_g of
        # the message, exactly.
        message = session.encode([5, 6, 7]).coeffs[None, :]
        want = apply_galois_rows(message, np.array([[params.t]]),
                                 params.n, g)[0]
        assert np.array_equal(context.decrypt(rotated, keys.secret).coeffs,
                              want)


class TestNarrowPrimeFallbacks:
    def test_reciprocal_overflow_is_a_parameter_error(self):
        """20-bit primes have 69-bit reciprocals: the basis must refuse
        them by name, not die converting the table to int64. 28-bit
        primes fit the basis's int64 table but not the lift gemm's four
        15-bit limbs, so the lift context refuses them."""
        from repro.errors import ParameterError
        from repro.rns.basis import RnsBasis, lift_context

        with pytest.raises(ParameterError, match="reciprocal table"):
            RnsBasis(find_ntt_primes(20, 64, 3))
        source = tuple(find_ntt_primes(28, 64, 3))
        target = source + tuple(find_ntt_primes(30, 64, 2))
        with pytest.raises(ParameterError, match="reciprocal table"):
            lift_context(source, target)
