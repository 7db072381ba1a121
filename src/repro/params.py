"""Parameter sets for the FV scheme and the hardware model.

The paper's production set (Section III): ring degree n = 4096, ciphertext
modulus q = product of six 30-bit primes (180 bits), extension modulus
p = product of seven more 30-bit primes so Q = q*p is 390 bits (>= the
372 bits required for exact tensor products), error standard deviation
sigma = 102, plaintext modulus t = 2, multiplicative depth 4, >= 80-bit
security.

Smaller sets with the *same prime width* (30 bits) are provided for tests:
the hardware datapath models (30x30 multiplier, sliding-window reduction)
behave identically on them, only the ring degree shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import ParameterError
from .nttmath.batch import MAX_ENGINE_N
from .nttmath.primes import find_ntt_primes
from .utils import is_power_of_two

PRIME_BITS = 30
"""Residue width of the paper's datapath (30-bit primes, Sec. III-B)."""


@dataclass(frozen=True)
class ParameterSet:
    """An FV parameter set in RNS form.

    Construction is the envelope check of the paper's datapath: every
    prime is exactly ``PRIME_BITS`` = 30 bits wide and NTT-friendly, and
    ``n <= MAX_ENGINE_N`` = 32768 (Table V's largest ring). Inside it the
    gemm NTT engine and the lift / scale gemms serve every basis the set
    builds; outside it construction raises :class:`ParameterError`.

    Attributes:
        name: human-readable identifier.
        n: ring degree (power of two); the ring is Z[x]/(x^n + 1).
        q_primes: RNS primes whose product is the ciphertext modulus q.
        p_primes: extension primes; Q = q * prod(p_primes) is the tensor
            modulus used inside homomorphic multiplication.
        t: plaintext modulus.
        sigma: standard deviation of the discrete Gaussian error sampler.
    """

    name: str
    n: int
    q_primes: tuple[int, ...]
    p_primes: tuple[int, ...]
    t: int = 2
    sigma: float = 102.0

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"ring degree {self.n} is not a power of two")
        if self.n > MAX_ENGINE_N:
            raise ParameterError(
                f"ring degree {self.n} exceeds the NTT engine's envelope "
                f"(n <= {MAX_ENGINE_N})"
            )
        all_primes = self.q_primes + self.p_primes
        if len(set(all_primes)) != len(all_primes):
            raise ParameterError("RNS primes must be distinct")
        for prime in all_primes:
            if (prime - 1) % (2 * self.n) != 0:
                raise ParameterError(
                    f"prime {prime} is not NTT-friendly for degree {self.n}"
                )
            if prime.bit_length() != PRIME_BITS:
                raise ParameterError(
                    f"prime {prime} is {prime.bit_length()} bits wide; the "
                    f"datapath takes {PRIME_BITS}-bit primes"
                )
        if self.t < 2:
            raise ParameterError("plaintext modulus must be at least 2")
        if self.t >= min(all_primes):
            raise ParameterError("plaintext modulus must be below every prime")

    # -- derived moduli ----------------------------------------------------

    @property
    def q(self) -> int:
        """Ciphertext modulus (product of the q-basis primes)."""
        return prod(self.q_primes)

    @property
    def p(self) -> int:
        """Extension modulus (product of the p-basis primes)."""
        return prod(self.p_primes)

    @property
    def big_q(self) -> int:
        """Tensor modulus Q = q * p."""
        return self.q * self.p

    @property
    def delta(self) -> int:
        """Plaintext scaling factor Delta = floor(q / t)."""
        return self.q // self.t

    @property
    def k_q(self) -> int:
        """Number of primes in the q basis (6 in the paper)."""
        return len(self.q_primes)

    @property
    def k_p(self) -> int:
        """Number of extension primes (7 in the paper)."""
        return len(self.p_primes)

    @property
    def k_total(self) -> int:
        """Total number of RNS primes (13 in the paper)."""
        return self.k_q + self.k_p

    @property
    def log2_q(self) -> int:
        """Bit size of q (180 in the paper)."""
        return self.q.bit_length()

    @property
    def log2_big_q(self) -> int:
        """Bit size of Q (390 in the paper)."""
        return self.big_q.bit_length()

    # -- sizes that drive the DMA / memory models ---------------------------

    @property
    def poly_bytes(self) -> int:
        """Serialised size of one R_q polynomial.

        Residues are packed one per 32-bit word as the paper's DMA does:
        4096 coefficients x 6 residues x 4 bytes = 98,304 bytes, the
        transfer size of Table III.
        """
        return self.n * self.k_q * 4

    @property
    def ciphertext_bytes(self) -> int:
        """Serialised size of one ciphertext (two R_q polynomials)."""
        return 2 * self.poly_bytes

    # -- correctness / security checks --------------------------------------

    def tensor_bound_bits(self) -> int:
        """Bits needed to hold a tensor-product coefficient exactly.

        A product of two centered R_q polynomials has coefficients bounded
        by n * (q/2)^2; Q must exceed twice this (sign), which is the
        paper's ">= 372-bit" requirement for Q.
        """
        bound = self.n * (self.q // 2) ** 2 * 2
        return bound.bit_length()

    def validate_tensor_capacity(self) -> None:
        """Raise unless Q can represent the centered tensor product."""
        if self.log2_big_q < self.tensor_bound_bits():
            raise ParameterError(
                f"Q ({self.log2_big_q} bits) cannot hold tensor products "
                f"({self.tensor_bound_bits()} bits needed)"
            )

    def estimated_security_bits(self) -> float:
        """Heuristic ring-LWE security estimate.

        Linear-in-(n / log2 q) rule calibrated against published
        lwe-estimator outputs (n=4096, log2 q = 109, sigma ~ 3.2 gives
        ~128 bits classical). The paper's set (n=4096, log2 q = 180,
        sigma = 102) lands at ~80 bits under the same rule, matching its
        Section III claim. This is a sanity gauge, not a security proof.
        """
        base = 3.41 * self.n / self.log2_q
        # Wider error distributions buy a little extra security; the rule
        # of thumb is ~ log2(sigma / 3.2) extra bits.
        import math

        return base + max(0.0, math.log2(self.sigma / 3.2))


@lru_cache(maxsize=None)
def _ntt_primes(bits: int, n: int, count: int) -> tuple[int, ...]:
    return tuple(find_ntt_primes(bits, n, count))


def _build(name: str, n: int, k_q: int, k_p: int, t: int,
           sigma: float) -> ParameterSet:
    primes = _ntt_primes(PRIME_BITS, n, k_q + k_p)
    return ParameterSet(
        name=name,
        n=n,
        q_primes=primes[:k_q],
        p_primes=primes[k_q:],
        t=t,
        sigma=sigma,
    )


@lru_cache(maxsize=None)
def hpca19(t: int = 2) -> ParameterSet:
    """The paper's production parameter set (Section III)."""
    params = _build("hpca19", n=4096, k_q=6, k_p=7, t=t, sigma=102.0)
    params.validate_tensor_capacity()
    return params


@lru_cache(maxsize=None)
def mini(t: int = 2) -> ParameterSet:
    """A reduced set for integration tests: n = 256, same prime width.

    Every datapath (30-bit multiplier, reduction tables, lift/scale
    pipelines) is exercised identically; only the ring is smaller, so the
    cycle-level simulator runs in milliseconds instead of minutes.
    """
    params = _build("mini", n=256, k_q=4, k_p=5, t=t, sigma=8.0)
    params.validate_tensor_capacity()
    return params


@lru_cache(maxsize=None)
def toy(t: int = 2) -> ParameterSet:
    """The smallest coherent set (n = 64) for exhaustive unit tests."""
    params = _build("toy", n=64, k_q=3, k_p=4, t=t, sigma=3.2)
    params.validate_tensor_capacity()
    return params


@lru_cache(maxsize=None)
def large16k(t: int = 2) -> ParameterSet:
    """n = 16384 with a 360-bit q — the sweep point between the Table V
    extrapolations.

    Same basis shape as :func:`table5_large` (twelve q primes, thirteen
    extension primes: Q = 750 bits comfortably holds the ~733-bit
    tensor bound, and p > q * t * n / 4 keeps the HPS scale's p-basis
    representative exact), one ring doubling up. Heuristic security
    ~155 bits classical (3.41 * 16384 / 360 + log2(102 / 3.2)).
    """
    params = _build("large16k", n=16384, k_q=12, k_p=13, t=t, sigma=102.0)
    params.validate_tensor_capacity()
    return params


@lru_cache(maxsize=None)
def hpca19_large(t: int = 2) -> ParameterSet:
    """The large-ring production set: n = 32768, 360-bit q.

    The ring the paper's architecture (and the accelerators it
    inspired — HEAX, Medha) is sized against for deep circuits. Twelve
    30-bit q primes (360 bits) and thirteen extension primes (Q = 750
    bits) satisfy both exactness obligations: the tensor bound
    (log2(2 n (q/2)^2) ~ 734 bits < 750) and the HPS scale's p-basis
    bound (p ~ 2^390 > q * t * n / 4 ~ 2^375).

    Security: under the same calibrated heuristic as
    :meth:`ParameterSet.estimated_security_bits` (linear in
    n / log2 q, sigma credit ~5 bits), n = 32768 with a 360-bit q and
    sigma = 102 lands at ~315 bits classical — far above the paper's
    80-bit floor. The ring is sized for the large-ring NTT engine and
    deep SIMD workloads, not for minimal security: growing q (more
    depth) trades that headroom down, staying >= 128-bit until
    log2 q ~ 870.
    """
    params = _build("hpca19_large", n=32768, k_q=12, k_p=13, t=t,
                    sigma=102.0)
    params.validate_tensor_capacity()
    return params


def large_ring(n: int, t: int = 2) -> ParameterSet:
    """The benchmark-sweep parameter set for one ring degree.

    Maps each degree of the throughput sweep (n = 4096 ... 32768) to
    its named set: the paper's production set at n = 4096, the Table V
    instantiation at n = 8192, and the 360-bit-q large-ring sets above
    it. Raises for degrees outside the sweep.
    """
    sets = {4096: hpca19, 8192: table5_large, 16384: large16k,
            32768: hpca19_large}
    if n not in sets:
        raise ParameterError(
            f"no sweep parameter set for ring degree {n}; "
            f"pick one of {sorted(sets)}"
        )
    return sets[n](t=t)


@lru_cache(maxsize=None)
def table5_large(t: int = 2) -> ParameterSet:
    """The second Table V point, actually instantiated: n = 8192, 360-bit q.

    The paper only *estimates* this design (Sec. VI-D assumes a larger
    FPGA); our simulator can execute it outright, which lets the tests
    validate the paper's scaling model against real schedule-derived
    cycle counts instead of extrapolation. q uses twelve 30-bit primes
    (360 bits); the extension basis has thirteen primes so Q comfortably
    exceeds the n * q^2 tensor bound.
    """
    params = _build("table5_large", n=8192, k_q=12, k_p=13, t=t,
                    sigma=102.0)
    params.validate_tensor_capacity()
    return params
