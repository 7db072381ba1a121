"""Tests for the parameter sets (paper Sec. III)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.nttmath.batch import MAX_ENGINE_N, BasisTransformer
from repro.nttmath.primes import find_ntt_primes
from repro.params import (
    PRIME_BITS,
    ParameterSet,
    hpca19,
    hpca19_large,
    large16k,
    large_ring,
    mini,
    table5_large,
    toy,
)
from repro.rns.basis import lift_context, scale_context
from repro.rns.lift import lift_hps_ntt


class TestPaperParameterSet:
    """The hpca19 set must match every number in paper Sec. III."""

    def test_ring_degree(self, paper_params):
        assert paper_params.n == 4096

    def test_q_is_180_bits_from_six_30bit_primes(self, paper_params):
        assert paper_params.k_q == 6
        assert paper_params.log2_q == 180
        assert all(p.bit_length() == 30 for p in paper_params.q_primes)

    def test_big_q_is_390_bits_from_13_primes(self, paper_params):
        assert paper_params.k_total == 13
        assert paper_params.log2_big_q == 390

    def test_big_q_exceeds_required_372_bits(self, paper_params):
        assert paper_params.tensor_bound_bits() <= 372
        paper_params.validate_tensor_capacity()

    def test_sigma(self, paper_params):
        assert paper_params.sigma == 102.0

    def test_security_estimate_near_80_bits(self, paper_params):
        assert 70 <= paper_params.estimated_security_bits() <= 95

    def test_primes_ntt_friendly(self, paper_params):
        for prime in paper_params.q_primes + paper_params.p_primes:
            assert (prime - 1) % (2 * paper_params.n) == 0

    def test_poly_bytes_matches_table3_transfer(self, paper_params):
        # Table III moves one R_q polynomial = 98,304 bytes.
        assert paper_params.poly_bytes == 98_304

    def test_ciphertext_bytes(self, paper_params):
        assert paper_params.ciphertext_bytes == 2 * 98_304

    def test_delta(self, paper_params):
        assert paper_params.delta == paper_params.q // 2

    def test_deterministic_construction(self):
        assert hpca19().q_primes == hpca19().q_primes


class TestReducedSets:
    def test_toy_is_coherent(self, toy_params):
        toy_params.validate_tensor_capacity()
        assert toy_params.n == 64

    def test_mini_is_coherent(self, mini_params):
        mini_params.validate_tensor_capacity()
        assert mini_params.n == 256

    def test_same_prime_width_as_paper(self, toy_params, mini_params):
        for params in (toy_params, mini_params):
            assert all(
                p.bit_length() == 30
                for p in params.q_primes + params.p_primes
            )

    def test_plaintext_modulus_override(self):
        params = mini(t=65537)
        assert params.t == 65537


class TestValidation:
    def test_rejects_non_power_of_two_degree(self, toy_params):
        with pytest.raises(ParameterError):
            ParameterSet("bad", 100, toy_params.q_primes,
                         toy_params.p_primes)

    def test_rejects_duplicate_primes(self, toy_params):
        with pytest.raises(ParameterError):
            ParameterSet("bad", 64,
                         toy_params.q_primes + toy_params.q_primes[:1],
                         toy_params.p_primes)

    def test_rejects_unfriendly_prime(self, toy_params):
        with pytest.raises(ParameterError):
            ParameterSet("bad", 64, (7,) + toy_params.q_primes[1:],
                         toy_params.p_primes)

    def test_rejects_tiny_plaintext_modulus(self, toy_params):
        with pytest.raises(ParameterError):
            ParameterSet("bad", 64, toy_params.q_primes,
                         toy_params.p_primes, t=1)

    def test_rejects_plaintext_modulus_above_primes(self, toy_params):
        with pytest.raises(ParameterError):
            ParameterSet("bad", 64, toy_params.q_primes,
                         toy_params.p_primes, t=1 << 31)


SHIPPED = {
    **{f"{build.__name__}-t{t}": (lambda build=build, t=t: build(t=t))
       for build in (toy, mini, hpca19) for t in (2, 65537)},
    "table5_large": table5_large,
    "large16k": large16k,
    "hpca19_large": hpca19_large,
    **{f"large_ring-{n}": (lambda n=n: large_ring(n))
       for n in (4096, 8192, 16384, 32768)},
}


class TestEngineEnvelope:
    """The door: a parameter set is checked against the NTT engine's
    envelope (30-bit primes, n <= 32768) once, at construction, and
    every shipped set lies inside it."""

    @pytest.mark.parametrize("build", SHIPPED.values(), ids=SHIPPED.keys())
    def test_every_shipped_set_is_served_by_the_engine(self, build):
        params = build()
        assert params.n <= MAX_ENGINE_N
        for primes in (params.q_primes, params.p_primes,
                       params.q_primes + params.p_primes):
            assert BasisTransformer(primes, params.n).k == len(primes)
        lift_context(params.q_primes, params.q_primes + params.p_primes)
        scale_context(params.q_primes, params.p_primes, params.t)

    def test_refuses_a_ring_beyond_the_envelope(self):
        n = 2 * MAX_ENGINE_N
        primes = tuple(find_ntt_primes(PRIME_BITS, n, 3))
        with pytest.raises(ParameterError, match="envelope"):
            ParameterSet("n65536", n, primes[:1], primes[1:])
        with pytest.raises(ParameterError, match="envelope"):
            BasisTransformer(primes, n)

    def test_refuses_a_narrow_prime(self, toy_params):
        narrow = tuple(find_ntt_primes(PRIME_BITS - 1, toy_params.n, 1))
        with pytest.raises(ParameterError, match="29 bits wide"):
            ParameterSet("narrow", toy_params.n,
                         narrow + toy_params.q_primes[1:],
                         toy_params.p_primes)

    def test_evaluation_domain_lift_needs_the_source_as_prefix(
            self, toy_params):
        context = lift_context(toy_params.q_primes, toy_params.p_primes)
        rows = np.zeros((toy_params.k_q, toy_params.n), dtype=np.int64)
        with pytest.raises(ParameterError, match="starts with the source"):
            lift_hps_ntt(context, rows)
