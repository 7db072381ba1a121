"""RNS bases and the precomputed constant tables of the paper's ROMs.

An :class:`RnsBasis` is an ordered tuple of pairwise-coprime primes. The
class precomputes every constant the hardware keeps in read-only memory:

* ``q_star[i] = q / q_i`` and ``q_tilde[i] = (q/q_i)^-1 mod q_i``
  (Theorem 1 of the paper);
* fixed-point reciprocals ``round(2^89 / q_i)`` used by the HPS quotient
  estimate — the paper stores 89 fractional bits of ``1/q_i`` of which the
  first 29 are zero, i.e. a 60-bit mantissa (Sec. V-B2);
* cross-basis reduction tables ``q_star[i] mod t_j`` for base extension.

:class:`LiftContext` and :class:`ScaleContext` bundle the cross-basis
tables for the two conversions of Figs. 6 and 9; :class:`DecryptContext`
holds the tables of the client-boundary scale to the plaintext modulus
and of the mixed-radix noise measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from ..errors import ParameterError
from ..nttmath.batch import RESIDUE, reduction_moduli
from ..nttmath.modmath import modinv

RECIP_FRACTION_BITS = 89
"""Fixed-point precision of the stored reciprocals 1/q_i (paper Sec. V-B2)."""

SCALE_FRACTION_BITS = 60
"""Fixed-point precision of the fractional scale constants R_i (Sec. V-C)."""

_MASK30 = (1 << 30) - 1


class RnsBasis:
    """An ordered RNS basis with precomputed CRT constants."""

    def __init__(self, primes) -> None:
        self.primes = tuple(int(p) for p in primes)
        if len(set(self.primes)) != len(self.primes):
            raise ParameterError("RNS basis primes must be distinct")
        if any(p < 3 for p in self.primes):
            raise ParameterError("RNS basis primes must be odd primes")
        self.modulus = prod(self.primes)
        self.size = len(self.primes)
        self.q_star = tuple(self.modulus // p for p in self.primes)
        self.q_tilde = tuple(
            modinv(star % p, p)
            for star, p in zip(self.q_star, self.primes, strict=True)
        )
        # The primes as residue words (a conditional subtract stays in 32
        # bits); q~ in int64 (a product with it widens).
        self.primes_col = np.array(self.primes, dtype=RESIDUE)[:, None]
        self.q_tilde_col = np.array(self.q_tilde, dtype=np.int64)[:, None]
        # 89-fractional-bit reciprocals; for ~30-bit primes the value fits
        # in 60 bits (first 29 fractional bits of 1/q_i are zero).
        self.recip = tuple(
            ((1 << RECIP_FRACTION_BITS) + p // 2) // p for p in self.primes
        )
        if any(r >= (1 << 62) for r in self.recip):
            raise ParameterError("reciprocal table overflows the datapath")
        recips = np.array(self.recip, dtype=np.int64)
        self.recip_hi_col = (recips >> 30)[:, None]
        self.recip_lo_col = (recips & _MASK30)[:, None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RnsBasis(size={self.size}, bits={self.modulus.bit_length()})"

    # -- conversions -----------------------------------------------------------

    def residues_of(self, value: int) -> np.ndarray:
        """Residue vector of a single integer."""
        return np.array([value % p for p in self.primes], dtype=RESIDUE)

    def reconstruct(self, residues) -> int:
        """Exact CRT reconstruction of one residue vector into [0, modulus)."""
        total = 0
        for value, star, tilde, p in zip(
            residues, self.q_star, self.q_tilde, self.primes, strict=True
        ):
            total += (int(value) * tilde % p) * star
        return total % self.modulus

    def reconstruct_centered(self, residues) -> int:
        """CRT reconstruction into (-modulus/2, modulus/2]."""
        value = self.reconstruct(residues)
        if value > self.modulus // 2:
            value -= self.modulus
        return value

    def reconstruct_coeffs(self, residue_matrix: np.ndarray) -> list[int]:
        """Column-wise CRT of a (size x n) residue matrix to big integers."""
        matrix = np.asarray(residue_matrix)
        if matrix.shape[0] != self.size:
            raise ParameterError(
                f"residue matrix has {matrix.shape[0]} rows, basis needs "
                f"{self.size}"
            )
        columns = matrix.T.tolist()
        return [self.reconstruct(column) for column in columns]

    def reconstruct_coeffs_centered(
        self, residue_matrix: np.ndarray
    ) -> list[int]:
        half = self.modulus // 2
        return [
            v - self.modulus if v > half else v
            for v in self.reconstruct_coeffs(residue_matrix)
        ]

    # -- cross-basis tables ------------------------------------------------------

    def star_mod_table(self, target_primes) -> np.ndarray:
        """Matrix ``q_star[i] mod t_j`` with shape (len(targets), size)."""
        return np.array(
            [[star % t for star in self.q_star] for t in target_primes],
            dtype=np.int64,
        )

    def modulus_mod(self, target_primes) -> np.ndarray:
        """Vector ``modulus mod t_j``."""
        return np.array(
            [self.modulus % t for t in target_primes], dtype=np.int64
        )


@dataclass(frozen=True)
class LiftContext:
    """Precomputed tables for one base extension (paper Fig. 6).

    ``source`` is the basis the residues live in; ``target_primes`` are the
    primes whose residues are produced. For Lift q->Q the target is the
    p-basis; for the final step of Scale Q->q the roles are reversed.
    """

    source: RnsBasis
    target_primes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "star_table", self.source.star_mod_table(self.target_primes)
        )
        object.__setattr__(
            self, "q_mod_target", self.source.modulus_mod(self.target_primes)
        )
        object.__setattr__(
            self,
            "target_col",
            np.array(self.target_primes, dtype=np.int64)[:, None],
        )
        # When the target basis starts with the source primes (Lift
        # q->Q), those output rows are *identical* to the input rows:
        # every representative of x differs from x by a multiple of q,
        # which vanishes modulo each source prime. The fast path then
        # only computes the genuinely new channels.
        object.__setattr__(
            self,
            "source_prefix",
            len(self.source.primes)
            if self.target_primes[: self.source.size] == self.source.primes
            else 0,
        )
        # The lift gemm carries the HPS reciprocals as four 15-bit
        # limbs, i.e. 60 significant bits. 30-bit primes fit
        # (recip ~ 2^89 / 2^29.x < 2^60); narrower ones would truncate.
        if any(r >= (1 << 60) for r in self.source.recip):
            raise ParameterError(
                "reciprocal table needs more than the lift gemm's 60 "
                f"bits: source primes must be 30 bits wide, got "
                f"{min(self.source.primes).bit_length()}"
            )
        object.__setattr__(self, "_gemm", None)

    def gemm_tables(self) -> tuple[np.ndarray, ...]:
        """Float64 tables for the limb-split Block 2 matrix product.

        ``star_cat`` is ``[star * 2^15 mod t_j | star]`` so one dgemm
        against the 15-bit limb split of x' computes the whole sum of
        products exactly (see :func:`repro.rns.lift._lift_block2_gemm`).
        Built lazily and cached on the (frozen) context.
        """
        if self._gemm is None:
            # Rows for source-prefix targets are free (see above), so
            # the gemm tables only cover the genuinely new channels.
            skip = self.source_prefix
            star = self.star_table[skip:]
            t_col = self.target_col[skip:]
            star15 = (star << 15) % t_col
            star_cat = np.concatenate([star15, star], axis=1).astype(
                np.float64
            )
            # Four extra output rows accumulate the HPS quotient's
            # fixed-point reciprocals, 15 bits at a time: row L holds
            # sum_i x'_i * ((recip_i >> 15L) & 0x7fff), assembled
            # against the same [x' >> 15 | x' & 0x7fff] limb columns.
            # Every partial sum stays below 2^50, so the dgemm is exact
            # and hps_quotient's separate passes disappear.
            recips = np.array(self.source.recip, dtype=np.int64)
            limb_rows = []
            for level in range(4):
                limb = (recips >> (15 * level)) & 0x7FFF
                limb_rows.append(
                    np.concatenate([limb << 15, limb]).astype(np.float64)
                )
            full = np.concatenate([star_cat, np.stack(limb_rows)])
            object.__setattr__(self, "_gemm", (
                full,
                reduction_moduli(t_col),
                self.q_mod_target[skip:].astype(np.float64)[:, None],
            ))
        return self._gemm


@dataclass(frozen=True)
class ScaleContext:
    """Precomputed tables for Scale Q->q with the HPS method (Fig. 9).

    The input lives in the full basis Q = q-basis ∪ p-basis; the output is
    round(t * x / q) in the q-basis. Fig. 9 Block 1 takes every channel
    to ``x'_k = [x_k * Q~_k]_{Q_k}`` (``full_basis.q_tilde``, also
    ``full_q_tilde``); then a q-channel's ``x'_i`` carries the constant
    ``t * p / q_i`` and a p-channel's ``x'_j`` the integer
    ``t * p / p_j``. :meth:`gemm_tables` holds them:

    * the integer part ``I_i`` of ``t * p / q_i``, modulo each p_j;
    * its fractional part ``R_i``, kept as 60 truncated fixed-point
      bits ``f_i`` (Sec. V-C);
    * ``t * p / p_j mod p_j``, the p-channel's own term (Fig. 9 Block 3).

    ``final_lift`` is the :class:`LiftContext` from the p-basis to the
    q-basis for the final base extension (Fig. 9 Block 5).
    """

    q_basis: RnsBasis
    p_basis: RnsBasis
    t: int

    def __post_init__(self) -> None:
        full = basis_for(self.q_basis.primes + self.p_basis.primes)
        object.__setattr__(self, "full_basis", full)
        object.__setattr__(self, "full_q_tilde", full.q_tilde)
        object.__setattr__(
            self, "final_lift", LiftContext(self.p_basis, self.q_basis.primes)
        )
        object.__setattr__(self, "_gemm", None)

    def gemm_tables(self) -> tuple[np.ndarray, ...]:
        """Float64 tables for the limb-split Blocks 2-4 matrix product.

        Against the limbs ``[x' >> 15 | x' & 0x7fff]`` of all ``k_Q``
        prescaled rows (q rows first), the weight matrix is
        ``[W * 2^15 mod p_j | W]``. Row j of ``W`` holds the integer
        parts ``I_i mod p_j`` and, on the diagonal of its p block,
        channel j's own term, so Fig. 9's Blocks 2 *and* 3 come out of
        one dgemm. Four more rows accumulate the fractions 15 bits at a
        time: row ``k_p + L`` holds ``(f_i >> 15L) & 0x7fff`` on the q
        columns, exactly as :meth:`LiftContext.gemm_tables` carries the
        HPS reciprocals. Every partial sum stays below 2^51 (see
        :func:`repro.rns.scale._scale_band`). Built lazily and cached on
        the (frozen) context.
        """
        if self._gemm is None:
            q_primes, p_primes = self.q_basis.primes, self.p_basis.primes
            k_q, k_p = len(q_primes), len(p_primes)
            numerator = self.t * self.p_basis.modulus
            weights = np.zeros((k_p + 4, k_q + k_p), dtype=np.int64)
            weights[:k_p, :k_q] = [[numerator // qi % pj for qi in q_primes]
                                   for pj in p_primes]
            np.fill_diagonal(weights[:k_p, k_q:],
                             [numerator // pj % pj for pj in p_primes])
            fractions = np.array(
                [((numerator % qi) << SCALE_FRACTION_BITS) // qi
                 for qi in q_primes], dtype=np.int64)
            for level in range(4):
                weights[k_p + level, :k_q] = (
                    fractions >> (15 * level)) & 0x7FFF
            high = weights << 15
            high[:k_p] %= self.p_basis.primes_col
            object.__setattr__(self, "_gemm", (
                np.concatenate([high, weights], axis=1).astype(np.float64),
                reduction_moduli(self.p_basis.primes_col),
            ))
        return self._gemm


@dataclass(frozen=True)
class DecryptContext:
    """Precomputed tables for exact RNS decryption and noise measurement.

    Decryption is the paper's Scale unit (Fig. 9) pointed at the
    plaintext modulus: ``m = round(t * w / q) mod t`` needs only the
    per-channel splits ``t * x_i = I_i * q_i + R_i`` of
    ``x_i = [w_i q~_i]_{q_i}``, because every other term of the CRT
    expansion is a multiple of t. The noise norm needs an order on
    residue vectors, which the mixed-radix (Garner) digits provide:
    ``u = a_0 + a_1 q_0 + a_2 q_0 q_1 + ...`` with ``a_j < q_j``
    compares lexicographically from the top digit. Kernels live in
    :mod:`repro.rns.decrypt`.
    """

    basis: RnsBasis
    t: int

    def __post_init__(self) -> None:
        basis = self.basis
        q, primes = basis.modulus, basis.primes
        half = (q - 1) // 2
        object.__setattr__(self, "half", half)
        # The kernels compute in int64: against int64 columns numpy runs
        # its int64 loops, not buffered mixed-type ones.
        for name, value in (("primes_col", basis.primes_col),
                            ("delta_col", basis.residues_of(q // self.t)),
                            ("half_col", basis.residues_of(half))):
            object.__setattr__(self, name,
                               value.reshape(-1, 1).astype(np.int64))
        object.__setattr__(self, "inv_primes_col", 1.0 / basis.primes_col)
        # Garner stage j multiplies the rows below j by q_j^-1 mod q_i.
        inverses = np.zeros((basis.size, basis.size, 1), dtype=np.int64)
        for j, qj in enumerate(primes):
            for i in range(j + 1, basis.size):
                inverses[j, i, 0] = modinv(qj % primes[i], primes[i])
        object.__setattr__(self, "garner_inv", inverses)
        object.__setattr__(
            self, "radix_weights",
            tuple(prod(primes[:j]) for j in range(basis.size)))


@lru_cache(maxsize=None)
def basis_for(primes: tuple[int, ...]) -> RnsBasis:
    """Cached basis construction (constant tables are reused everywhere)."""
    return RnsBasis(primes)


@lru_cache(maxsize=None)
def lift_context(source_primes: tuple[int, ...],
                 target_primes: tuple[int, ...]) -> LiftContext:
    return LiftContext(basis_for(source_primes), tuple(target_primes))


@lru_cache(maxsize=None)
def scale_context(q_primes: tuple[int, ...], p_primes: tuple[int, ...],
                  t: int) -> ScaleContext:
    return ScaleContext(basis_for(q_primes), basis_for(p_primes), t)


@lru_cache(maxsize=None)
def decrypt_context(q_primes: tuple[int, ...], t: int) -> DecryptContext:
    return DecryptContext(basis_for(q_primes), t)
