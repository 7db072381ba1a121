"""Exact RNS decryption and noise measurement, held to the big-integer
oracle, and the measure-once contract of the client boundary.

``FvContext.decrypt_with_noise`` computes the plaintext by an HPS scale
to the plaintext modulus and the noise norm by one mixed-radix
conversion (``repro.rns.decrypt``); ``repro.fv.reference.
decrypt_with_noise_bigint`` is the multiprecision loop it replaced. Both
results must be *equal* — plaintext arrays and noise integers — on every
parameter set, ciphertext size, part domain and noise state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LocalBackend, Session, rotate, sum_slots
from repro.errors import NoiseBudgetExhausted
from repro.fv.ciphertext import Ciphertext
from repro.fv.encoder import Plaintext
from repro.fv.evaluator import Evaluator
from repro.fv.reference import decrypt_with_noise_bigint
from repro.fv.sampler import uniform_rns_rows
from repro.fv.scheme import FvContext
from repro.obs import current_registry
from repro.parallel import ExecutionConfig
from repro.params import hpca19, large_ring, mini
from repro.poly.rns_poly import RnsPoly
from repro.rns.basis import decrypt_context
from repro.rns.decrypt import (
    GUARD_FALLBACKS,
    mixed_radix_digits,
    scale_to_t,
)
from repro.utils import round_half_away
from scaffolding import residues_of_coeffs, toy

PARAMETER_SETS = {
    "toy": (toy, 30),
    "mini": (lambda: mini(t=257), 30),
    "hpca19_t2": (hpca19, 8),
    "hpca19_t65537": (lambda: hpca19(t=65537), 8),
    "large_ring_8192": (lambda: large_ring(8192), 3),
}


@lru_cache(maxsize=None)
def _scheme(name: str):
    params = PARAMETER_SETS[name][0]()
    context = FvContext(params, seed=11)
    return context, context.keygen(), Evaluator(context)


def _build(name: str, seed: int, size: int, domain: str,
           state: str) -> Ciphertext:
    """One ciphertext of the requested shape, from ``seed``."""
    context, keys, evaluator = _scheme(name)
    params = context.params
    rng = np.random.default_rng(seed)
    primes_col = context.q_basis.primes_col

    def fresh() -> Ciphertext:
        plain = Plaintext(rng.integers(0, params.t, params.n), params.t)
        return context.encrypt(plain, keys.public)

    if state == "post_mult":
        ct = (evaluator.multiply_raw(fresh(), fresh()) if size == 3
              else evaluator.multiply(fresh(), fresh(), keys.relin))
    else:
        ct = fresh().to_coeff()
        if size == 3:
            # A genuine third part with the phase unchanged:
            # c0 - c2*s^2 + c2*s^2.
            c2 = uniform_rns_rows(rng, params.n, params.q_primes)
            s_sq = (keys.secret.ntt_rows * keys.secret.ntt_rows) % primes_col
            c2_s2 = context._intt_rows(
                (context._ntt_rows(c2) * s_sq) % primes_col)
            ct = Ciphertext(
                (RnsPoly(context.q_basis,
                         (ct.c0.residues - c2_s2) % primes_col),
                 ct.parts[1], RnsPoly(context.q_basis, c2)), params)
    if state == "exhausted":
        # A uniform phase: every fractional part of t*w/q occurs.
        flood = uniform_rns_rows(rng, params.n, params.q_primes)
        ct = Ciphertext(
            (RnsPoly(context.q_basis,
                     (ct.c0.residues + flood) % primes_col),)
            + ct.parts[1:], params)
    return ct.to_coeff() if domain == "coefficient" else ct.to_ntt()


def _differential(name: str):
    @settings(max_examples=PARAMETER_SETS[name][1], deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.sampled_from([2, 3]),
           domain=st.sampled_from(["coefficient", "resident"]),
           state=st.sampled_from(["fresh", "post_mult", "exhausted"]))
    def check(seed, size, domain, state):
        context, keys, _ = _scheme(name)
        ct = _build(name, seed, size, domain, state)
        assert ct.size == size and ct.ntt_resident == (domain == "resident")
        plain, noise = context.decrypt_with_noise(ct, keys.secret)
        want_plain, want_noise = decrypt_with_noise_bigint(
            context, ct, keys.secret)
        assert plain == want_plain
        assert isinstance(noise, int) and noise == want_noise
        # Rounding to the nearest multiple of Delta caps the measured
        # norm near q/2t: an exhausted ciphertext reads as under a bit.
        params = context.params
        assert (noise > params.q // (4 * params.t)) == (
            state == "exhausted")

    check()


class TestOracleDifferential:
    @pytest.mark.parametrize(
        "name", [n for n in PARAMETER_SETS if n != "large_ring_8192"])
    def test_matches_bigint_oracle(self, name):
        _differential(name)

    @pytest.mark.slow
    def test_matches_bigint_oracle_large_ring(self):
        _differential("large_ring_8192")

    def test_mixed_radix_digits_reconstruct(self):
        """The Garner digits are the value, and order like it."""
        context = decrypt_context(hpca19().q_primes, 2)
        basis = context.basis
        rng = np.random.default_rng(5)
        values = [int(rng.integers(0, 2**62)) ** 3 % basis.modulus
                  for _ in range(64)] + [0, basis.modulus - 1]
        digits = mixed_radix_digits(
            context, residues_of_coeffs(basis, values))
        assert (digits < basis.primes_col).all() and (digits >= 0).all()
        rebuilt = [sum(int(d) * w for d, w in
                       zip(column, context.radix_weights, strict=True))
                   for column in digits.T]
        assert rebuilt == values
        # lexsort's last key is the primary one: the top digit.
        assert [values[i] for i in np.lexsort(digits)] == sorted(values)


class TestGuardBand:
    """Coefficients whose ``t*w/q`` sits on a rounding boundary take the
    big-integer fallback: loud (counted) and result-preserving."""

    @pytest.mark.parametrize("t", [2, 257, 65537])
    def test_boundary_coefficients_fall_back_and_match(self, t):
        context = decrypt_context(hpca19().q_primes, t)
        basis, q = context.basis, context.basis.modulus
        rng = np.random.default_rng(t)
        # w = (r + 1/2) q / t, rounded to either neighbour: t*w/q is
        # within t/q (far inside 2^-20) of the half-integer r + 1/2.
        boundary = []
        for r in [0, 1, t - 1, t // 2] + rng.integers(0, t, 28).tolist():
            exact = (2 * r + 1) * q // (2 * t)
            boundary += [exact, exact + 1]
        clear = [int(v) * q // 2**40 for v in rng.integers(0, 2**40, 64)]
        values = boundary + clear
        rows = residues_of_coeffs(basis, values)
        before = GUARD_FALLBACKS.value()
        m = scale_to_t(context, rows)
        moved = GUARD_FALLBACKS.value() - before
        assert len(boundary) <= moved <= len(boundary) + 1
        want = [round_half_away(
            t * (v - q if v > q // 2 else v), q) % t for v in values]
        assert m.tolist() == want
        # The two neighbours of a boundary round apart.
        assert all((m[i + 1] - m[i]) % t == 1
                   for i in range(0, len(boundary), 2))

    def test_fallback_reaches_decrypt_with_noise(self, toy_context,
                                                 toy_keys):
        """Through the public entry point: a (w, 0) ciphertext whose
        phase is the boundary value itself."""
        params = toy_context.params
        q, t, basis = params.q, params.t, toy_context.q_basis
        values = [(2 * (j % t) + 1) * q // (2 * t) + (j & 1)
                  for j in range(params.n)]
        ct = Ciphertext(
            (RnsPoly(basis, residues_of_coeffs(basis, values)),
             RnsPoly(basis, np.zeros((basis.size, params.n), np.int64))),
            params)
        before = GUARD_FALLBACKS.value()
        got = toy_context.decrypt_with_noise(ct, toy_keys.secret)
        assert GUARD_FALLBACKS.value() - before == params.n
        want = decrypt_with_noise_bigint(toy_context, ct, toy_keys.secret)
        assert got[0] == want[0] and got[1] == want[1]


@pytest.fixture()
def counted_measurements(monkeypatch):
    """Count calls of ``FvContext.decrypt_with_noise``."""
    calls = []
    original = FvContext.decrypt_with_noise

    def counting(self, ct, secret):
        calls.append(ct)
        return original(self, ct, secret)

    monkeypatch.setattr(FvContext, "decrypt_with_noise", counting)
    return calls


class TestMeasureOnce:
    """Verification is the one place an output is measured."""

    @pytest.fixture(scope="class")
    def session(self):
        return Session(mini(t=65537), seed=23)

    @staticmethod
    def _rotsum(session, x, weights):
        h = session.encrypt(x)
        return {
            "dot": sum_slots(h * session.encode(weights)),
            "win": (h + rotate(h, 1) + rotate(h, 2) + rotate(h, 3)) * 3,
        }

    def test_run_then_read_measures_each_output_once(
            self, session, counted_measurements):
        t, n = session.params.t, session.params.n
        rng = np.random.default_rng(3)
        x, weights = rng.integers(0, t, n), rng.integers(0, t, n)
        program = session.compile(self._rotsum(session, x, weights),
                                  optimize=True)
        result = LocalBackend(session).run(program)
        assert len(counted_measurements) == 2
        # Measured in the evaluation domain, where the outputs stay: no
        # forward transform redone.
        assert all(ct.ntt_resident for ct in counted_measurements)
        assert result.ciphertext("dot").ntt_resident
        for _ in range(2):
            dot, win = result.decrypt("dot"), result.decrypt("win")
            budgets = [result.noise_budget_bits(label)
                       for label in result.outputs]
        assert len(counted_measurements) == 2
        assert (dot == (x * weights).sum() % t).all()
        assert min(budgets) > 0
        # The views agree with an independent measurement.
        assert budgets == [session.noise_budget_bits(result[label])
                           for label in result.outputs]
        assert (win == session.decrypt(result["win"])).all()

    def test_lazy_handle_decrypt_measures_once(self, session,
                                               counted_measurements):
        a, b = session.encrypt([2, 3]), session.encrypt([5, 7])
        assert session.decrypt(a * b, size=2).tolist() == [10, 21]
        assert len(counted_measurements) == 1

    def test_decrypt_results_do_not_alias(self):
        session = Session(toy(), seed=3)
        result = LocalBackend(session).run(
            session.compile(session.encrypt([1, 0, 1])))
        first = result.decrypt()
        first[:] = 7
        assert result.decrypt(size=3).tolist() == [1, 0, 1]

    def test_exhausted_measurement_is_refused(self, session, monkeypatch):
        """An over-deep program fails the static check; at run time the
        backend refuses any output whose measurement reads no budget."""
        h = session.encrypt([1, 1])
        for _ in range(5):
            h = h * h
        with pytest.raises(NoiseBudgetExhausted):
            session.compile(h)
        a = session.encrypt([1, 2])
        program = session.compile(a + a)
        original = FvContext.decrypt_with_noise

        def saturated(self, ct, secret):
            return original(self, ct, secret)[0], self.params.q // 2

        monkeypatch.setattr(FvContext, "decrypt_with_noise", saturated)
        with pytest.raises(NoiseBudgetExhausted, match="'out'"):
            LocalBackend(session).run(program)

    def test_traced_verification_is_attributed_to_kernels(self):
        session = Session(hpca19(), seed=2)
        a = session.encrypt([1, 0, 1])
        b = session.encrypt([1, 1])
        backend = LocalBackend(session)
        result = backend.run(session.compile(a * b))
        (verify,) = [s for s in result.trace.spans("phase")
                     if s.name == "verify_outputs"]
        assert [(c.kind, c.name) for c in verify.children] == [
            ("kernel", "decrypt.phase"),
            ("kernel", "decrypt.scale_to_t"),
            ("kernel", "decrypt.noise"),
        ]
        covered = sum(c.duration for c in verify.children)
        assert covered > 0.8 * verify.duration
        # The trace totals still reconcile with the registry diff.
        assert result.trace.transform_totals() == {
            k: v for k, v in backend.last_transform_counts.items() if v}


    def test_threaded_verification_runs_as_column_bands(self):
        """Under a pool both residue kernels fan out over coefficient
        columns through the instrumented dispatch, and measure exactly
        what the big-integer oracle measures."""
        session = Session(hpca19(), seed=2)
        a = session.encrypt([1, 0, 1])
        b = session.encrypt([1, 1])
        backend = LocalBackend(session,
                               executor=ExecutionConfig("threads", 2))
        try:
            result = backend.run(session.compile(a * b))
        finally:
            backend.executor.close()
        (verify,) = [s for s in result.trace.spans("phase")
                     if s.name == "verify_outputs"]
        _, scale, noise = verify.children
        for kernel in (scale, noise):
            assert kernel.kind == "kernel"
            assert [(c.kind, c.name) for c in kernel.children] == [
                ("tile", "decrypt.band")] * 4
            assert all(c.attrs["worker"].startswith("repro-w")
                       for c in kernel.children)
        assert current_registry().value(
            "parallel_dispatch_total", executor="threads") >= 2.0
        assert result.measure() == decrypt_with_noise_bigint(
            session.context, result.ciphertext("out"), session.keys.secret)


class TestPlainPoolByValue:
    def test_reencoded_constant_hits_the_pool(self):
        session = Session(mini(t=257), seed=31)
        backend = LocalBackend(session)
        rng = np.random.default_rng(1)
        for _ in range(8):
            x = rng.integers(0, 257, session.params.n)
            h = session.encrypt(x)
            result = backend.run(session.compile(h * 3))
            assert (result.decrypt() == x * 3 % 257).all()
        assert len(session._plain_ntt_pool) == 1

    def test_distinct_constants_and_moduli_do_not_collide(self):
        session = Session(mini(t=257), seed=31)
        three, four = session.encode(3), session.encode(4)
        assert not np.array_equal(session.plain_ntt(three),
                                  session.plain_ntt(four))
        assert session.plain_ntt(session.encode(3)) is session.plain_ntt(
            three)
        assert len(session._plain_ntt_pool) == 2
        # In-place mutation changes the value, hence the key.
        rows = session.plain_ntt(three).copy()
        three.coeffs[0] = (three.coeffs[0] + 1) % 257
        assert not np.array_equal(session.plain_ntt(three), rows)

    def test_pool_stays_bounded(self):
        session = Session(mini(t=257), seed=1)
        session._plain_pool_limit = 4
        for value in range(9):
            session.plain_delta_ntt(session.encode([value, 1]))
        assert len(session._plain_delta_pool) <= 4
