"""Exact decryption arithmetic on residues: no multiprecision loop.

Given the coefficient rows over q of the decryption phase
``w = c0 + c1 s (+ c2 s^2)``, the client needs two things:

* :func:`scale_to_t` — the plaintext ``round(t * w / q) mod t``. This is
  the paper's Scale unit (Fig. 9) with the plaintext modulus as its
  target. Expanding ``w = sum_i x_i q*_i - v q`` with
  ``x_i = [w_i q~_i]_{q_i}`` gives ``t w / q = sum_i t x_i / q_i - v t``,
  and splitting ``t x_i = I_i q_i + R_i`` leaves
  ``m = (sum_i I_i + round(sum_i R_i / q_i)) mod t``: integer parts in
  int64, one float64 sum of k fractions below 1. q is odd, so the sum is
  never exactly a half-integer; a coefficient whose float sum lands
  within :data:`GUARD_BAND` of one is recomputed from the big integer
  (exact, and counted on :data:`GUARD_FALLBACKS`).
* :func:`noise_norm` — ``max_j |[w_j - Delta m_j]_q|`` as an exact Python
  int. The shifted value ``u = w - Delta m + (q-1)/2`` maps the centered
  noise interval onto ``[0, q)`` monotonically, so the norm is read off
  the largest and the smallest u. Residue vectors carry no order, their
  mixed-radix digits do: one batched Garner conversion (k_q - 1 row
  stages), a lexicographic arg-max/arg-min, and only those two columns
  are rebuilt as integers.
"""

from __future__ import annotations

import numpy as np

from ..obs import Counter as _ObsCounter
from ..parallel import map_bands
from ..utils import round_half_away
from .basis import DecryptContext

GUARD_BAND = 2.0 ** -20
"""Half-width of the band around a rounding boundary inside which the
float64 fraction sum is not trusted. The sum's error is below
``k * 2^-51`` (k < 64 terms in [0, 1), each one rounding of a product
and one of an addition): under 2^-45, a factor 2^25 inside the band."""

GUARD_FALLBACKS = _ObsCounter(
    "repro_decrypt_guard_fallbacks_total",
    "Coefficients scale_to_t recomputed by big-integer CRT because "
    "their fraction sum fell inside the rounding guard band.",
)


def scale_to_t(context: DecryptContext, w_rows: np.ndarray) -> np.ndarray:
    """``round(t * w / q) mod t`` per coefficient, from q-basis rows.

    Element-wise in the coefficient column, so under a pool the
    columns run as bands; the guard-band recomputation (and its
    counter) stays on the calling thread.
    """
    basis, t = context.basis, context.t
    m = np.empty(w_rows.shape[1], dtype=np.int64)
    unsure_bands: list[np.ndarray] = []

    def band(lo: int, hi: int) -> None:
        x = (w_rows[:, lo:hi] * basis.q_tilde_col) % context.primes_col
        integer, remainder = np.divmod(x * t, context.primes_col)
        fraction = (remainder * context.inv_primes_col).sum(axis=0)
        nearest = np.floor(fraction + 0.5)
        m[lo:hi] = (integer.sum(axis=0) + nearest.astype(np.int64)) % t
        unsure_bands.append(lo + np.flatnonzero(
            0.5 - np.abs(fraction - nearest) < GUARD_BAND))

    map_bands("decrypt.band", band, w_rows.shape[1], work=w_rows.size)
    unsure = np.concatenate(unsure_bands)
    for column in unsure:
        w = basis.reconstruct_centered(w_rows[:, column])
        m[column] = round_half_away(t * w, basis.modulus) % t
    if unsure.size:
        GUARD_FALLBACKS.inc(int(unsure.size))
    return m


def mixed_radix_digits(context: DecryptContext,
                       rows: np.ndarray) -> np.ndarray:
    """Garner conversion of ``(k, n)`` residue rows, in place.

    Returns the same array holding digits ``a_j`` in ``[0, q_j)`` with
    ``value = sum_j a_j * q_0 ... q_{j-1}``. Stage j fixes digit j and
    strips it from every row below: the operands stay under 2^30, so
    each product fits int64.
    """
    primes_col = context.primes_col
    for j in range(context.basis.size - 1):
        tail = rows[j + 1:]
        tail -= rows[j]
        tail *= context.garner_inv[j, j + 1:]
        tail %= primes_col[j + 1:]
    return rows


def _lex_arg(digits: np.ndarray, pick) -> int:
    """Column holding the lexicographic ``pick`` (np.max / np.min),
    most significant digit last."""
    columns = np.arange(digits.shape[1])
    for row in digits[::-1]:
        values = row[columns]
        columns = columns[values == pick(values)]
        if columns.size == 1:
            break
    return int(columns[0])


def noise_norm(context: DecryptContext, w_rows: np.ndarray,
               m: np.ndarray) -> int:
    """Infinity norm of the centered ``[w - Delta m]_q``, exactly.

    The shift and the Garner stages are element-wise in the
    coefficient column and run as column bands under a pool; the
    lexicographic search reads the finished digits on the caller.
    """
    digits = np.empty(w_rows.shape, dtype=np.int64)

    def band(lo: int, hi: int) -> None:
        u = digits[:, lo:hi]
        np.subtract(w_rows[:, lo:hi], context.delta_col * m[lo:hi], out=u)
        u += context.half_col
        u %= context.primes_col
        mixed_radix_digits(context, u)

    map_bands("decrypt.band", band, w_rows.shape[1], work=w_rows.size)
    u_max, u_min = (
        sum(int(digit) * weight for digit, weight in
            zip(digits[:, _lex_arg(digits, pick)], context.radix_weights,
                strict=True))
        for pick in (np.max, np.min)
    )
    return max(u_max - context.half, context.half - u_min)
