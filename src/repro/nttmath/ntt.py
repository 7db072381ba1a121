"""Number Theoretic Transform (paper Alg. 1) and negacyclic wrappers.

Two implementations are provided on purpose:

* :func:`ntt_iterative` / :func:`intt_iterative` are literal, pure-Python
  transcriptions of the paper's Algorithm 1. They are the *reference*
  against which both the vectorised transforms and the hardware NTT unit
  (``repro.hw.ntt_unit``) are tested.
* :class:`NegacyclicTransformer` is the production path: numpy-vectorised,
  with precomputed twiddle factors, used by the FV evaluator and by the
  fast executor of the hardware simulator.

All moduli must fit in 31 bits so that a 30x30-bit product stays below
2^62 and int64 arithmetic is exact — the same width constraint the paper's
DSP-based multiplier imposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..utils import log2_exact
from .bitrev import bit_reverse_permute
from .modmath import modinv, modpow
from .primes import root_of_unity

_MAX_MODULUS_BITS = 31


def _check_modulus(modulus: int) -> None:
    if modulus.bit_length() > _MAX_MODULUS_BITS:
        raise ParameterError(
            f"modulus {modulus} exceeds {_MAX_MODULUS_BITS} bits; int64 NTT "
            "arithmetic would overflow (use the RNS representation instead)"
        )


def ntt_iterative(coeffs: list[int], modulus: int, omega: int) -> list[int]:
    """Forward NTT exactly as in paper Algorithm 1 (pure Python integers).

    ``omega`` must be a primitive n-th root of unity modulo ``modulus``
    where ``n = len(coeffs)``. Input and output are in natural order; the
    bit-reversal permutation of line 1 happens internally.
    """
    n = len(coeffs)
    log2_exact(n)
    values = [c % modulus for c in bit_reverse_permute(list(coeffs))]
    m = 2
    while m <= n:
        w_m = modpow(omega, n // m, modulus)
        w = 1
        for j in range(m // 2):
            for k in range(0, n, m):
                t = (w * values[k + j + m // 2]) % modulus
                u = values[k + j]
                values[k + j] = (u + t) % modulus
                values[k + j + m // 2] = (u - t) % modulus
            w = (w * w_m) % modulus
        m *= 2
    return values


def intt_iterative(values: list[int], modulus: int, omega: int) -> list[int]:
    """Inverse NTT: forward transform with ``omega^-1`` then scale by ``n^-1``."""
    n = len(values)
    inv_omega = modinv(omega, modulus)
    inv_n = modinv(n, modulus)
    transformed = ntt_iterative(values, modulus, inv_omega)
    return [(value * inv_n) % modulus for value in transformed]


def power_table(base: int, count: int, modulus: int) -> np.ndarray:
    """``[base^0, base^1, ..., base^(count-1)] mod modulus`` in O(log count).

    Doubling construction: each round appends ``table * base^len`` to the
    existing table, so the whole ROM is built with log2(count) vectorised
    passes instead of a scalar Python loop. Requires a modulus below 31
    bits so the int64 products stay exact.
    """
    _check_modulus(modulus)
    table = np.ones(1, dtype=np.int64)
    table[0] = 1 % modulus
    filled = 1
    while filled < count:
        step = modpow(base, filled, modulus)
        take = min(filled, count - filled)
        table = np.concatenate([table, (table[:take] * step) % modulus])
        filled += take
    return table


def stage_twiddles(n: int, modulus: int, omega: int) -> list[np.ndarray]:
    """Per-stage twiddle factors ``w_m^j`` for stages m = 2, 4, ..., n.

    This is exactly the content of the twiddle-factor ROM the paper stores
    on-chip to avoid pipeline bubbles (Sec. V-A4); the hardware NTT unit
    reads its twiddles from here. Stage m's table is a strided read of
    the omega power table: ``w_m^j = omega^(j * n/m)``.
    """
    log2_exact(n)
    omega_pow = power_table(omega, max(n // 2, 1), modulus)
    tables = []
    m = 2
    while m <= n:
        tables.append(np.ascontiguousarray(omega_pow[:: n // m][: m // 2]))
        m *= 2
    return tables


def _ntt_vectorized(values: np.ndarray, modulus: int,
                    tables: list[np.ndarray]) -> np.ndarray:
    """Vectorised Cooley-Tukey NTT over a bit-reversed input copy."""
    n = values.shape[0]
    work = bit_reverse_permute(values.astype(np.int64)) % modulus
    for stage, twiddles in enumerate(tables):
        m = 2 << stage
        half = m // 2
        blocks = work.reshape(n // m, m)
        left = blocks[:, :half]
        right = blocks[:, half:]
        t = (right * twiddles) % modulus
        u = left.copy()
        blocks[:, :half] = (u + t) % modulus
        blocks[:, half:] = (u - t) % modulus
    return work.reshape(n)


def negacyclic_convolution(a: list[int], b: list[int], modulus: int) -> list[int]:
    """Schoolbook negacyclic product ``a*b mod (x^n + 1, modulus)``.

    Quadratic and exact for arbitrary-precision moduli; used as the ground
    truth in tests and by the big-integer FV reference implementation.
    """
    n = len(a)
    if len(b) != n:
        raise ParameterError("operands must have equal length")
    result = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            term = ai * bj
            if k < n:
                result[k] += term
            else:
                result[k - n] -= term
    return [value % modulus for value in result]


@dataclass
class NegacyclicTransformer:
    """Vectorised negacyclic NTT context for ``Z_q[x]/(x^n + 1)``.

    Precomputes the 2n-th root of unity ``psi`` (so that ``omega = psi^2``),
    its power tables, and the per-stage twiddle ROM. The same tables are
    consumed by the hardware simulator, which guarantees that software and
    simulated hardware operate on identical constants.
    """

    n: int
    modulus: int
    psi: int = field(init=False)

    def __post_init__(self) -> None:
        log2_exact(self.n)
        _check_modulus(self.modulus)
        if (self.modulus - 1) % (2 * self.n) != 0:
            raise ParameterError(
                f"modulus {self.modulus} is not NTT-friendly for degree "
                f"{self.n}: need modulus ≡ 1 (mod {2 * self.n})"
            )
        self.psi = root_of_unity(2 * self.n, self.modulus)
        self.omega = (self.psi * self.psi) % self.modulus
        self.inv_psi = modinv(self.psi, self.modulus)
        self.inv_omega = modinv(self.omega, self.modulus)
        self.inv_n = modinv(self.n, self.modulus)
        self.psi_powers = power_table(self.psi, self.n, self.modulus)
        self.inv_psi_powers = power_table(self.inv_psi, self.n, self.modulus)
        self.forward_tables = stage_twiddles(self.n, self.modulus, self.omega)
        self.inverse_tables = stage_twiddles(self.n, self.modulus, self.inv_omega)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward transform: scale by ``psi^i`` then plain NTT."""
        coeffs = np.asarray(coeffs, dtype=np.int64) % self.modulus
        if coeffs.shape != (self.n,):
            raise ParameterError(f"expected {self.n} coefficients")
        scaled = (coeffs * self.psi_powers) % self.modulus
        return _ntt_vectorized(scaled, self.modulus, self.forward_tables)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse transform: plain INTT then scale by ``psi^-i/n``."""
        values = np.asarray(values, dtype=np.int64) % self.modulus
        if values.shape != (self.n,):
            raise ParameterError(f"expected {self.n} evaluation points")
        work = _ntt_vectorized(values, self.modulus, self.inverse_tables)
        work = (work * self.inv_n) % self.modulus
        return (work * self.inv_psi_powers) % self.modulus

    def pointwise(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Coefficient-wise modular product of two transformed polynomials."""
        return (np.asarray(left, dtype=np.int64)
                * np.asarray(right, dtype=np.int64)) % self.modulus

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic polynomial product via the convolution theorem."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))
