"""WordDecomp: decompositions used by relinearisation (paper Sec. II-B).

Two flavours, matching the two coprocessor variants:

* :func:`signed_digit_decompose` — classic base-w decomposition with
  *signed* digits in [-w/2, w/2), exactly like the paper's toy example
  (43 with w = 2^4 becomes digits (-5, 3) since 43 = -5 + 3*16). Used by
  the traditional-CRT coprocessor, which can pick the digit count freely
  (it uses two 90-bit digits, a "three times smaller" key).
* :func:`rns_decompose` — the RNS decomposition D_i(a) = [a_i * q~_i]_{q_i}
  with reconstruction sum_i D_i(a) * q*_i ≡ a (mod q). This is what the
  HPS coprocessor uses: six digit polynomials for six q-primes, which is
  why its relinearisation key is a vector of six polynomials.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath.modmath import modinv
from .basis import RnsBasis


def broadcast_digit_rows(residues: np.ndarray,
                         basis: RnsBasis) -> np.ndarray:
    """Raw-residue digit tensor: row i of ``residues`` broadcast to every
    basis channel, reduced per channel.

    This is the paper's cheap WordDecomp — pure data movement plus a
    per-channel reduction. For the standard 30-bit bases the values are
    below twice every prime, so one unsigned-minimum conditional
    subtract replaces the integer division.
    """
    k, n = residues.shape
    tiled = np.broadcast_to(residues[:, None, :], (k, basis.size, n))
    if min(basis.primes) >= 1 << 29:
        digits = np.ascontiguousarray(tiled)
        reduced = digits - basis.primes_col
        np.minimum(digits.view(np.uint64), reduced.view(np.uint64),
                   out=digits.view(np.uint64))
        return digits
    # Narrow primes: one integer-division reduction per channel.
    return tiled % basis.primes_col


def signed_digit_decompose(value: int, base: int, count: int) -> list[int]:
    """Signed base-``base`` digits of ``value``: d_i in [-base/2, base/2).

    ``value`` may be any integer with ``|value| < base**count / 2``; the
    digits satisfy ``value == sum(d_i * base**i)`` exactly.
    """
    if base < 2 or base % 2:
        raise ParameterError("digit base must be an even integer >= 2")
    digits = []
    remaining = value
    half = base // 2
    for _ in range(count):
        digit = remaining % base
        if digit >= half:
            digit -= base
        digits.append(digit)
        remaining = (remaining - digit) // base
    if remaining != 0:
        raise ParameterError(
            f"value {value} does not fit in {count} signed base-{base} digits"
        )
    return digits


def recompose_signed_digits(digits: list[int], base: int) -> int:
    """Inverse of :func:`signed_digit_decompose`."""
    value = 0
    for digit in reversed(digits):
        value = value * base + digit
    return value


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


def rns_decompose(basis: RnsBasis, residues: np.ndarray) -> np.ndarray:
    """RNS decomposition of a residue matrix (HPS relinearisation).

    Input: (k x n) residues of a polynomial over the basis. Output: a
    (k x k x n) tensor ``out[i]`` where digit polynomial i is the small
    integer D_i(a) = [a_i * q~_i]_{q_i} broadcast to residues modulo every
    basis prime (a 30-bit value needs at most one conditional subtraction
    per channel, which is why the paper calls WordDecomp cheap).
    """
    matrix = np.asarray(residues, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != basis.size:
        raise ParameterError(
            f"expected ({basis.size} x n) residues, got {matrix.shape}"
        )
    k, n = matrix.shape
    digits = (matrix * basis.q_tilde_col) % basis.primes_col  # (k, n)
    out = np.empty((k, k, n), dtype=np.int64)
    for i in range(k):
        # Digit value D_i is a plain integer < q_i; reduce it into every
        # channel of the basis.
        out[i] = digits[i][None, :] % basis.primes_col
    return out


def prime_groups(size: int, group_size: int) -> list[tuple[int, ...]]:
    """Partition prime indices 0..size-1 into consecutive groups."""
    if group_size < 1:
        raise ParameterError("group size must be at least 1")
    return [
        tuple(range(start, min(start + group_size, size)))
        for start in range(0, size, group_size)
    ]


def grouped_rns_digits(basis: RnsBasis, residues: np.ndarray,
                       group_size: int) -> np.ndarray:
    """Grouped RNS decomposition: digit j = [a mod Q_j], Q_j a prime group.

    This is how RNS implementations keep the relinearisation component
    count constant as the basis grows (HPS Sec. 4; SEAL's key-switching):
    with groups of two 30-bit primes the digits are 60-bit integers and a
    twelve-prime modulus still needs only six key components. Output
    shape: (num_groups, basis.size, n) — each digit broadcast into every
    channel of the basis, ready for the NTT-domain sum of products.

    The group reconstruction is exact big-integer CRT per group (digits
    can exceed 63 bits for groups of three or more, hence the object
    arithmetic inside).
    """
    matrix = np.asarray(residues, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != basis.size:
        raise ParameterError(
            f"expected ({basis.size} x n) residues, got {matrix.shape}"
        )
    groups = prime_groups(basis.size, group_size)
    n = matrix.shape[1]
    out = np.empty((len(groups), basis.size, n), dtype=np.int64)
    for j, group in enumerate(groups):
        group_primes = [basis.primes[i] for i in group]
        modulus = 1
        for p in group_primes:
            modulus *= p
        # CRT weights within the group.
        weights = []
        for p in group_primes:
            star = modulus // p
            weights.append(star * modinv(star % p, p))
        # Exact reconstruction of each coefficient's digit.
        columns = matrix[list(group)].T.tolist()
        digits = [
            sum(int(r) * w for r, w in zip(column, weights, strict=True)) % modulus
            for column in columns
        ]
        for channel, p in enumerate(basis.primes):
            out[j, channel] = np.array(
                [d % p for d in digits], dtype=np.int64
            )
    return out


def grouped_reconstruction_weights(basis: RnsBasis,
                                   group_size: int) -> list[int]:
    """The key constants: w_j = q~_j q*_j with q*_j = q / Q_j.

    They satisfy sum_j [a]_{Q_j} * w_j ≡ a (mod q), which is the identity
    grouped relinearisation keys are built on.
    """
    weights = []
    for group in prime_groups(basis.size, group_size):
        modulus = 1
        for i in group:
            modulus *= basis.primes[i]
        star = basis.modulus // modulus
        weights.append(star * modinv(star % modulus, modulus))
    return weights


def rns_recompose(basis: RnsBasis, digit_tensor: np.ndarray) -> np.ndarray:
    """Reconstruction check: sum_i D_i * q*_i mod each prime.

    Returns the (k x n) residue matrix congruent to the original input of
    :func:`rns_decompose`; used by property tests.
    """
    tensor = np.asarray(digit_tensor, dtype=np.int64)
    k = basis.size
    n = tensor.shape[2]
    out = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        star_col = np.array(
            [basis.q_star[i] % p for p in basis.primes], dtype=np.int64
        )[:, None]
        out = (out + tensor[i] * star_col) % basis.primes_col
    return out
