"""Textbook big-integer FV — the ground truth for the RNS implementation.

Every operation here works on :class:`~repro.poly.dense.IntPoly` with
exact arbitrary-precision arithmetic and no RNS tricks: encryption follows
Fig. 1 literally, multiplication computes the integer tensor product over
Q and scales by t/q with exact rounding, and relinearisation uses the
classic signed base-w WordDecomp of Sec. II-B (the variant the paper's
*slower* coprocessor implements, with its freely choosable digit count).

Tests drive this class and :class:`~repro.fv.scheme.FvContext` with
identical randomness and require identical ciphertexts for the linear
operations and identical decryptions after multiplications.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..params import ParameterSet
from ..poly.dense import IntPoly
from ..rns.decompose import decompose_poly_signed
from ..utils import round_half_away
from .ciphertext import Ciphertext
from .encoder import Plaintext
from .sampler import discrete_gaussian


class TextbookRelinKey:
    """Digit-decomposition relinearisation key (ell signed base-w digits)."""

    def __init__(self, pairs: list[tuple[IntPoly, IntPoly]], base_bits: int):
        self.pairs = pairs
        self.base_bits = base_bits

    @property
    def num_components(self) -> int:
        return len(self.pairs)

    def key_bytes(self, n: int, q_bits: int) -> int:
        """Serialised size, for the DMA overhead model of the slow design."""
        words = (q_bits + 31) // 32
        return 2 * self.num_components * n * words * 4


class TextbookFv:
    """Exact FV over IntPoly; see module docstring."""

    def __init__(self, params: ParameterSet, seed: int = 77) -> None:
        params.validate_tensor_capacity()
        self.params = params
        self.rng = np.random.default_rng(seed)

    # -- conversions from the RNS world ------------------------------------------

    def poly_from_rns(self, rns_poly) -> IntPoly:
        """Exact CRT image of an RNS polynomial's coefficients (an
        evaluation-domain one is inverse-transformed first)."""
        return IntPoly(tuple(rns_poly.to_coeff().to_int_coeffs()),
                       self.params.q)

    def ciphertext_from_rns(self, ct: Ciphertext) -> tuple[IntPoly, ...]:
        return tuple(self.poly_from_rns(part) for part in ct.parts)

    # -- key generation -------------------------------------------------------------

    def keygen_from(self, s_coeffs, a_coeffs, e_coeffs):
        """Build (s, p0, p1) from explicit randomness (Fig. 1 formulas)."""
        q, n = self.params.q, self.params.n
        s = IntPoly(tuple(int(c) for c in s_coeffs), q)
        a = IntPoly(tuple(int(c) for c in a_coeffs), q)
        e = IntPoly(tuple(int(c) for c in e_coeffs), q)
        p0 = -(a * s + e)
        return s, p0, a

    def relin_keygen(self, s: IntPoly, base_bits: int) -> TextbookRelinKey:
        """rlk_j encrypts w^j * s^2 for signed base-w digits, w = 2^base_bits."""
        params = self.params
        q, n = params.q, params.n
        count = -(-q.bit_length() // base_bits)  # ceil(log2 q / base_bits)
        s_sq = s * s
        pairs = []
        w_power = 1
        for _ in range(count):
            a = IntPoly(
                tuple(int(x) for x in uniform_mod_big(self.rng, n, q)), q
            )
            e = IntPoly(
                tuple(int(x) for x in
                      discrete_gaussian(self.rng, n, params.sigma)), q
            )
            b = s_sq.scalar_mul(w_power) - (a * s + e)
            pairs.append((b, a))
            w_power = (w_power << base_bits) % q
        return TextbookRelinKey(pairs, base_bits)

    # -- encrypt / decrypt -------------------------------------------------------------

    def encrypt_with(self, plain: Plaintext, p0: IntPoly, p1: IntPoly,
                     u, e1, e2) -> tuple[IntPoly, IntPoly]:
        params = self.params
        q = params.q
        u_poly = IntPoly(tuple(int(c) for c in u), q)
        e1_poly = IntPoly(tuple(int(c) for c in e1), q)
        e2_poly = IntPoly(tuple(int(c) for c in e2), q)
        m_poly = IntPoly(tuple(int(c) for c in plain.coeffs), q)
        c0 = p0 * u_poly + e1_poly + m_poly.scalar_mul(params.delta)
        c1 = p1 * u_poly + e2_poly
        return c0, c1

    def decrypt(self, parts: tuple[IntPoly, ...], s: IntPoly) -> Plaintext:
        params = self.params
        q, t = params.q, params.t
        acc = parts[0]
        s_power = s
        for part in parts[1:]:
            acc = acc + part * s_power
            s_power = s_power * s
        m = [
            round_half_away(t * w, q) % t for w in acc.centered()
        ]
        return Plaintext(np.array(m, dtype=np.int64), t)

    # -- homomorphic operations --------------------------------------------------------

    def add(self, a: tuple[IntPoly, ...],
            b: tuple[IntPoly, ...]) -> tuple[IntPoly, ...]:
        if len(a) != len(b):
            raise ParameterError("size mismatch")
        return tuple(pa + pb for pa, pb in zip(a, b, strict=True))

    def multiply_raw(self, a: tuple[IntPoly, IntPoly],
                     b: tuple[IntPoly, IntPoly]) -> tuple[IntPoly, ...]:
        """Exact tensor over Q followed by exact t/q scaling (Fig. 2)."""
        params = self.params
        big_q, q, t = params.big_q, params.q, params.t
        a0, a1 = (part.lift_to(big_q) for part in a)
        b0, b1 = (part.lift_to(big_q) for part in b)
        t0 = a0 * b0
        t1 = a0 * b1 + a1 * b0
        t2 = a1 * b1
        return tuple(
            poly.scale_round(t, q, q) for poly in (t0, t1, t2)
        )

    def relinearize(self, parts: tuple[IntPoly, IntPoly, IntPoly],
                    rlk: TextbookRelinKey) -> tuple[IntPoly, IntPoly]:
        """WordDecomp + SoP with the digit key (paper Sec. II-B)."""
        params = self.params
        q = params.q
        base = 1 << rlk.base_bits
        digit_polys = decompose_poly_signed(
            list(parts[2].coeffs), q, base, rlk.num_components
        )
        c0, c1 = parts[0], parts[1]
        for digits, (b, a) in zip(digit_polys, rlk.pairs, strict=True):
            d_poly = IntPoly(tuple(digits), q)
            c0 = c0 + d_poly * b
            c1 = c1 + d_poly * a
        return c0, c1

    def multiply(self, a, b, rlk: TextbookRelinKey):
        return self.relinearize(self.multiply_raw(a, b), rlk)


def decrypt_with_noise_bigint(context, ct: Ciphertext,
                              secret) -> tuple[Plaintext, int]:
    """The multiprecision decryption + noise loop — the oracle for
    :meth:`FvContext.decrypt_with_noise <repro.fv.scheme.FvContext.
    decrypt_with_noise>`.

    Every coefficient of the phase ``w = c0 + c1 s (+ c2 s^2)`` is CRT
    reconstructed to a centered Python int, scaled by t/q with exact
    rounding, and the noise ``[w - Delta m]_q`` is maximised over the
    ring — the per-coefficient loop the production path replaced with
    the residue kernels of :mod:`repro.rns.decrypt`.
    """
    params = context.params
    q, t, delta = params.q, params.t, params.delta
    w_coeffs = context.q_basis.reconstruct_coeffs_centered(
        context.phase_rows(ct, secret))
    m_coeffs = [round_half_away(t * w, q) % t for w in w_coeffs]
    noise = 0
    for w, m in zip(w_coeffs, m_coeffs, strict=True):
        diff = (w - delta * m) % q
        if diff > q // 2:
            diff = q - diff
        noise = max(noise, diff)
    return Plaintext(np.array(m_coeffs, dtype=np.int64), t), noise


def uniform_mod_big(rng: np.random.Generator, n: int, modulus: int):
    """Uniform big-integer coefficients in [0, modulus) of any size."""
    byte_len = (modulus.bit_length() + 15) // 8
    values = []
    for _ in range(n):
        values.append(int.from_bytes(rng.bytes(byte_len), "little") % modulus)
    return values
