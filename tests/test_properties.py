"""Cross-cutting property-based tests (hypothesis).

These target the invariants that tie the layers together: the algebra of
the ring, the exactness of the RNS conversions, the equivalence of the
hardware datapaths with the mathematics, and the homomorphic property of
the scheme itself under random plaintexts.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.hw.config import HardwareConfig
from repro.hw.modred import SlidingWindowReducer
from repro.hw.ntt_unit import DualCoreNttUnit, NttSchedule
from repro.nttmath.ntt import NegacyclicTransformer, negacyclic_convolution
from repro.rns.basis import basis_for, lift_context, scale_context
from repro.rns.lift import lift_hps
from repro.rns.scale import scale_hps
from repro.utils import round_half_away
from scaffolding import residues_of_coeffs, toy

PARAMS = toy()
PRIME = PARAMS.q_primes[0]
N = PARAMS.n

slow_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

coeff_vectors = st.lists(
    st.integers(0, PRIME - 1), min_size=N, max_size=N
)


class TestRingAlgebraProperties:
    @slow_settings
    @given(coeff_vectors, coeff_vectors, coeff_vectors)
    def test_multiplication_distributes(self, a, b, c):
        tr = NegacyclicTransformer(N, PRIME)
        a, b, c = (np.array(v, dtype=np.int64) for v in (a, b, c))
        left = tr.multiply(a, (b + c) % PRIME)
        right = (tr.multiply(a, b) + tr.multiply(a, c)) % PRIME
        assert np.array_equal(left, right)

    @slow_settings
    @given(coeff_vectors, coeff_vectors)
    def test_multiplication_commutes(self, a, b):
        tr = NegacyclicTransformer(N, PRIME)
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert np.array_equal(tr.multiply(a, b), tr.multiply(b, a))

    @slow_settings
    @given(coeff_vectors)
    def test_transform_bijective(self, a):
        tr = NegacyclicTransformer(N, PRIME)
        a = np.array(a, dtype=np.int64)
        assert np.array_equal(tr.inverse(tr.forward(a)), a)

    @slow_settings
    @given(st.integers(0, PRIME - 1), coeff_vectors)
    def test_scalar_linearity(self, scalar, a):
        tr = NegacyclicTransformer(N, PRIME)
        a = np.array(a, dtype=np.int64)
        scaled_then = tr.forward((a * scalar) % PRIME)
        then_scaled = (tr.forward(a) * scalar) % PRIME
        assert np.array_equal(scaled_then, then_scaled)


class TestRnsConversionProperties:
    @slow_settings
    @given(st.data())
    def test_lift_then_reduce_is_identity(self, data):
        """Lifting and reducing back modulo q-primes returns the input."""
        q_basis = basis_for(PARAMS.q_primes)
        ctx = lift_context(PARAMS.q_primes, PARAMS.p_primes)
        columns = data.draw(st.integers(1, 8))
        residues = np.array([
            [data.draw(st.integers(0, p - 1)) for _ in range(columns)]
            for p in PARAMS.q_primes
        ], dtype=np.int64)
        lifted = lift_hps(ctx, residues)
        p_basis = basis_for(PARAMS.p_primes)
        for col in range(columns):
            value = p_basis.reconstruct_centered(lifted[:, col])
            original = q_basis.reconstruct(residues[:, col])
            assert value % q_basis.modulus == original

    @slow_settings
    @given(st.data())
    def test_scale_is_division_with_rounding(self, data):
        full = basis_for(PARAMS.q_primes + PARAMS.p_primes)
        q = basis_for(PARAMS.q_primes).modulus
        ctx = scale_context(PARAMS.q_primes, PARAMS.p_primes, PARAMS.t)
        bound = PARAMS.n * (q // 2) ** 2
        values = [
            data.draw(st.integers(-bound, bound)) for _ in range(4)
        ]
        residues = residues_of_coeffs(full, values)
        out = scale_hps(ctx, residues)
        for col, value in enumerate(values):
            want = round_half_away(PARAMS.t * value, q)
            for i, prime in enumerate(PARAMS.q_primes):
                assert out[i, col] == want % prime

    @slow_settings
    @given(st.data())
    def test_crt_bijection(self, data):
        basis = basis_for(PARAMS.q_primes)
        value = data.draw(st.integers(0, basis.modulus - 1))
        assert basis.reconstruct(basis.residues_of(value)) == value


class TestHardwareEquivalenceProperties:
    @slow_settings
    @given(coeff_vectors)
    def test_hw_ntt_equals_math_ntt(self, coeffs):
        unit = DualCoreNttUnit(N, PRIME, HardwareConfig())
        tr = NegacyclicTransformer(N, PRIME)
        values = np.array(coeffs, dtype=np.int64)
        hw_result, _ = unit.run_strict(values)
        assert np.array_equal(hw_result, tr.forward(values))

    @slow_settings
    @given(st.integers(0, (1 << 60) - 1))
    def test_reduction_circuit_equals_modulo(self, value):
        reducer = SlidingWindowReducer(PRIME)
        assert reducer.reduce(value) == value % PRIME

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([16, 32, 64, 128, 256]),
           st.sampled_from([1, 2]))
    def test_schedule_covers_all_words_any_geometry(self, n, cores):
        schedule = NttSchedule(n, cores)
        for stage in range(1, schedule.log_n + 1):
            reads = sorted(
                w for order in schedule.read_order(stage) for w in order
            )
            writes = sorted(
                w for order in schedule.write_order(stage) for w in order
            )
            assert reads == list(range(schedule.words))
            assert writes == list(range(schedule.words))


class TestDecompositionProperties:
    @slow_settings
    @given(st.data())
    def test_grouped_digits_reconstruct(self, data):
        """For any residues and any decomposition — RNS groups of any
        size, signed digits of any width — the digits weighted by the
        key constants reconstruct the input."""
        from repro.rns.decompose import WordDecomp

        basis = basis_for(PARAMS.q_primes)
        decomposition = data.draw(st.one_of(
            st.builds(WordDecomp, st.integers(1, basis.size)),
            st.builds(WordDecomp, base_bits=st.integers(8, 130))))
        columns = data.draw(st.integers(1, 4))
        residues = np.array([
            [data.draw(st.integers(0, p - 1)) for _ in range(columns)]
            for p in basis.primes
        ], dtype=np.int64)
        digits = decomposition.digit_rows(basis, residues)
        weights = decomposition.weights(basis)
        acc = np.zeros_like(residues)
        for j, weight in enumerate(weights):
            weight_col = np.array(
                [weight % p for p in basis.primes], dtype=np.int64
            )[:, None]
            acc = (acc + digits[j] * weight_col) % basis.primes_col
        assert np.array_equal(acc, residues)

    @slow_settings
    @given(st.sampled_from([3, 5, 9, 15, 127]))
    def test_galois_is_invertible(self, g):
        """tau_g has an inverse automorphism tau_{g^-1 mod 2n}."""
        from repro.fv.galois import apply_galois_rows

        n = PARAMS.n
        g_inv = pow(g, -1, 2 * n)
        rng = np.random.default_rng(g)
        rows = rng.integers(0, PRIME, (1, n))
        mod_col = np.array([[PRIME]])
        there = apply_galois_rows(rows, mod_col, n, g)
        back = apply_galois_rows(there, mod_col, n, g_inv)
        assert np.array_equal(back, rows % PRIME)


class TestHomomorphicProperties:
    @pytest.fixture(scope="class")
    def machinery(self, toy_context, toy_keys):
        return toy_context, toy_keys, Evaluator(toy_context)

    @slow_settings
    @given(st.data())
    def test_additive_homomorphism(self, machinery, data):
        context, keys, _ = machinery
        t, n = context.params.t, context.params.n
        a = np.array(
            [data.draw(st.integers(0, t - 1)) for _ in range(8)],
            dtype=np.int64,
        )
        b = np.array(
            [data.draw(st.integers(0, t - 1)) for _ in range(8)],
            dtype=np.int64,
        )
        pa = Plaintext.from_list(a.tolist(), n, t)
        pb = Plaintext.from_list(b.tolist(), n, t)
        ct = context.add(context.encrypt(pa, keys.public),
                         context.encrypt(pb, keys.public))
        decrypted = context.decrypt(ct, keys.secret)
        assert decrypted.coeffs[:8].tolist() == ((a + b) % t).tolist()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_multiplicative_homomorphism(self, machinery, data):
        context, keys, evaluator = machinery
        t, n = context.params.t, context.params.n
        a = [data.draw(st.integers(0, t - 1)) for _ in range(4)]
        b = [data.draw(st.integers(0, t - 1)) for _ in range(4)]
        pa = Plaintext.from_list(a, n, t)
        pb = Plaintext.from_list(b, n, t)
        ct = evaluator.multiply(
            context.encrypt(pa, keys.public),
            context.encrypt(pb, keys.public),
            keys.relin,
        )
        decrypted = context.decrypt(ct, keys.secret)
        expected = negacyclic_convolution(
            pa.coeffs.tolist(), pb.coeffs.tolist(), t
        )
        assert decrypted.coeffs.tolist() == expected

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_mixed_circuit(self, machinery, data):
        """(a + b) * c decrypts to the plaintext circuit's output."""
        context, keys, evaluator = machinery
        t, n = context.params.t, context.params.n
        vectors = [
            [data.draw(st.integers(0, t - 1)) for _ in range(3)]
            for _ in range(3)
        ]
        plains = [Plaintext.from_list(v, n, t) for v in vectors]
        cts = [context.encrypt(p, keys.public) for p in plains]
        result = evaluator.multiply(
            context.add(cts[0], cts[1]), cts[2], keys.relin
        )
        summed = (plains[0].coeffs + plains[1].coeffs) % t
        expected = negacyclic_convolution(
            summed.tolist(), plains[2].coeffs.tolist(), t
        )
        assert context.decrypt(result, keys.secret).coeffs.tolist() \
            == expected
