"""WordDecomp: how relinearisation splits c2 into digits (paper Sec. II-B).

A relinearisation key is generated for one :class:`WordDecomp`, and this
module alone computes what follows from it: the keygen weights w_j (with
``sum_j D_j(a) * w_j ≡ a (mod q)``), the exact digit rows D_j(a) reduced
into every channel, and the metadata of the hw ``DIGIT`` instruction.
Two families:

* RNS digits over consecutive groups of g q-primes: D_j(a) = [a]_{Q_j}
  and w_j = q~_j q*_j with q*_j = q / Q_j. g = 1 is the paper's HPS
  coprocessor and the default: six raw residue rows for six q-primes,
  the CRT weights folded into the key, so WordDecomp is pure data
  movement. g = 2 gives the 60-bit digits (HEAX's dnum) whose constant
  digit count Table V's scaling assumes.
* signed base-2^b digits of the centred coefficients, d_i in
  [-2^(b-1), 2^(b-1)) — the paper's toy example turns 43 with w = 2^4
  into (-5, 3) since 43 = -5 + 3*16 — with w_j = 2^(b j). The
  traditional-CRT coprocessor (Sec. VI-C) uses two 90-bit digits, a
  "three times smaller" key.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import RESIDUE
from ..nttmath.modmath import modinv
from .basis import RnsBasis


def signed_digit_decompose(value: int, base: int, count: int) -> list[int]:
    """Signed base-``base`` digits of ``value``: d_i in [-base/2, base/2),
    the top digit in [-base/2, base/2].

    ``value`` may be any integer with ``|value| < base**count / 2``; the
    digits satisfy ``value == sum(d_i * base**i)`` exactly. The top digit
    takes what the lower ones leave: wrapping it from +base/2 to -base/2
    would leave a carry, and positive values near the bound would not fit.
    """
    if base < 2 or base % 2:
        raise ParameterError("digit base must be an even integer >= 2")
    digits = []
    remaining = value
    half = base // 2
    for _ in range(count - 1):
        digit = remaining % base
        if digit >= half:
            digit -= base
        digits.append(digit)
        remaining = (remaining - digit) // base
    digits.append(remaining)
    if count < 1 or not -half <= remaining <= half:
        raise ParameterError(
            f"value {value} does not fit in {count} signed base-{base} digits"
        )
    return digits


def decompose_poly_signed(coeffs: list[int], modulus: int, base: int,
                          count: int) -> list[list[int]]:
    """Signed digit decomposition of a polynomial's centered coefficients.

    Returns ``count`` digit polynomials (lists of signed ints).
    """
    half_q = modulus // 2
    digit_polys = [[0] * len(coeffs) for _ in range(count)]
    for idx, coeff in enumerate(coeffs):
        coeff %= modulus
        if coeff > half_q:
            coeff -= modulus
        for level, digit in enumerate(
            signed_digit_decompose(coeff, base, count)
        ):
            digit_polys[level][idx] = digit
    return digit_polys


def prime_groups(size: int, group_size: int) -> list[tuple[int, ...]]:
    """Partition prime indices 0..size-1 into consecutive groups."""
    if group_size < 1:
        raise ParameterError("group size must be at least 1")
    return [
        tuple(range(start, min(start + group_size, size)))
        for start in range(0, size, group_size)
    ]


def _channel_rows(basis: RnsBasis, digits: list[int]) -> np.ndarray:
    """One digit polynomial of exact integers reduced into every
    channel; the digits may exceed 64 bits (60- or 90-bit digits), so
    the reduction is exact integer arithmetic before vectorising."""
    return np.array([[d % p for d in digits] for p in basis.primes],
                    dtype=RESIDUE)


@dataclass(frozen=True)
class WordDecomp:
    """One relinearisation digit style: RNS digits over groups of
    ``group_size`` q-primes, or — when ``base_bits`` is set — signed
    base-2^``base_bits`` digits. ``WordDecomp()`` is the raw residue
    rows."""

    group_size: int = 1
    base_bits: int | None = None

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ParameterError("group size must be at least 1")
        if self.base_bits is not None and (self.base_bits < 1
                                           or self.group_size != 1):
            raise ParameterError(
                "a signed decomposition takes base_bits >= 1 and no group")

    @property
    def raw_rows(self) -> bool:
        """Digit i is residue row i of the input as it is (g = 1)."""
        return self.base_bits is None and self.group_size == 1

    def count(self, basis: RnsBasis) -> int:
        """Number of digits (key components) over ``basis``."""
        if self.base_bits is None:
            return -(-basis.size // self.group_size)
        return -(-basis.modulus.bit_length() // self.base_bits)

    def weights(self, basis: RnsBasis) -> list[int]:
        """The key constants w_j: ``sum_j D_j(a) * w_j ≡ a (mod q)``."""
        if self.base_bits is not None:
            return [pow(2, self.base_bits * j, basis.modulus)
                    for j in range(self.count(basis))]
        weights = []
        for group in prime_groups(basis.size, self.group_size):
            modulus = prod(basis.primes[i] for i in group)
            star = basis.modulus // modulus
            weights.append(star * modinv(star % modulus, modulus))
        return weights

    def digit_rows(self, basis: RnsBasis, residues: np.ndarray,
                   index: int | None = None) -> np.ndarray:
        """Exact digits of a ``(k, n)`` residue matrix, each reduced
        into every channel: ``(count, k, n)``, or digit ``index`` alone
        as ``(k, n)``."""
        matrix = np.asarray(residues, dtype=RESIDUE)
        if matrix.ndim != 2 or matrix.shape[0] != basis.size:
            raise ParameterError(
                f"expected ({basis.size} x n) residues, got {matrix.shape}"
            )
        indices = range(self.count(basis)) if index is None else (index,)
        if self.base_bits is not None:
            digit_polys = decompose_poly_signed(
                basis.reconstruct_coeffs(matrix), basis.modulus,
                1 << self.base_bits, self.count(basis))
            rows = [_channel_rows(basis, digit_polys[j]) for j in indices]
        else:
            groups = prime_groups(basis.size, self.group_size)
            rows = [self._group_rows(basis, matrix, groups[j])
                    for j in indices]
        return rows[0] if index is not None else np.stack(rows)

    @staticmethod
    def _group_rows(basis: RnsBasis, matrix: np.ndarray,
                    group: tuple[int, ...]) -> np.ndarray:
        if len(group) == 1:
            # A one-prime group's digit is its residue row as it is.
            return matrix[group[0]][None, :] % basis.primes_col
        # Exact CRT within the group: [a]_{Q_j} per coefficient.
        primes = [basis.primes[i] for i in group]
        modulus = prod(primes)
        crt = [(modulus // p) * modinv((modulus // p) % p, p)
               for p in primes]
        columns = matrix[list(group)].T.tolist()
        return _channel_rows(basis, [
            sum(int(r) * w for r, w in zip(column, crt, strict=True))
            % modulus
            for column in columns
        ])

    def instruction_meta(self, basis: RnsBasis) -> list[dict]:
        """``DIGIT`` metadata, one per digit: the decomposition and the
        digit's index, which the coprocessor executes through
        :meth:`digit_rows` and prices by :attr:`raw_rows`."""
        return [{"decomposition": self, "digit": j}
                for j in range(self.count(basis))]
