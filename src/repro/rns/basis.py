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
from ..nttmath.batch import reduction_moduli
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
        # The garbled-free constants as numpy columns for vectorised use.
        self.primes_col = np.array(self.primes, dtype=np.int64)[:, None]
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
        return np.array([value % p for p in self.primes], dtype=np.int64)

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
    round(t * x / q) in the q-basis. Constants:

    * ``int_table[j][i]``: integer part of ``t * Q~_i * (p / q_i)`` taken
      mod p-prime j — wait, precisely: the constant multiplying
      ``x'_i = [x_i * Q~_i]_{q_i}`` is ``t * Q*_i / q`` whose integer part
      ``I_i`` is tabulated modulo each output-stage prime and whose
      fractional part ``R_i`` is stored with 60 fixed-point bits;
    * ``p_term[j]``: the surviving integer constant ``t * Q*_j / q mod q_j``
      for the p-basis residue's own channel (Fig. 9 Block 3);
    * a :class:`LiftContext` from the p-basis to the q-basis for the final
      base extension (Fig. 9 Block 5).
    """

    q_basis: RnsBasis
    p_basis: RnsBasis
    t: int

    def __post_init__(self) -> None:
        q = self.q_basis.modulus
        p = self.p_basis.modulus
        big_q = q * p
        # Q~_k = (Q / q_k)^-1 mod q_k for every prime of the full basis.
        q_tilde_q = [
            modinv((big_q // qi) % qi, qi) for qi in self.q_basis.primes
        ]
        q_tilde_p = [
            modinv((big_q // pj) % pj, pj) for pj in self.p_basis.primes
        ]
        object.__setattr__(
            self,
            "x_prime_mult_q",
            np.array(q_tilde_q, dtype=np.int64)[:, None],
        )
        object.__setattr__(
            self,
            "x_prime_mult_p",
            np.array(q_tilde_p, dtype=np.int64)[:, None],
        )
        # For q-basis channels: t * Q*_i / q = t * p / q_i = I_i + R_i.
        int_rows = []
        frac_hi = []
        frac_lo = []
        for qi in self.q_basis.primes:
            numerator = self.t * p
            integer_part = numerator // qi
            remainder = numerator % qi
            fraction = (remainder << SCALE_FRACTION_BITS) // qi
            int_rows.append(
                [integer_part % pj for pj in self.p_basis.primes]
            )
            frac_hi.append(fraction >> 30)
            frac_lo.append(fraction & _MASK30)
        object.__setattr__(
            self,
            "int_table",
            np.array(int_rows, dtype=np.int64).T,  # (k_p, k_q)
        )
        object.__setattr__(
            self, "frac_hi_col", np.array(frac_hi, dtype=np.int64)[:, None]
        )
        object.__setattr__(
            self, "frac_lo_col", np.array(frac_lo, dtype=np.int64)[:, None]
        )
        # For p-basis channel j: t * Q*_j / q = t * (p / p_j) (an integer),
        # taken mod p_j. All other p-channels vanish mod p_j.
        object.__setattr__(
            self,
            "p_term",
            np.array(
                [
                    (self.t * (p // pj)) % pj
                    for pj in self.p_basis.primes
                ],
                dtype=np.int64,
            )[:, None],
        )
        object.__setattr__(
            self,
            "final_lift",
            LiftContext(self.p_basis, self.q_basis.primes),
        )
        object.__setattr__(self, "_gemm", None)
        object.__setattr__(self, "_gemm_pre", None)
        object.__setattr__(
            self,
            "full_q_tilde",
            tuple(int(c) for c in self.x_prime_mult_q[:, 0])
            + tuple(int(c) for c in self.x_prime_mult_p[:, 0]),
        )

    def gemm_tables(self) -> tuple[np.ndarray, ...]:
        """Float64 tables for the limb-split Blocks 2-4 matrix product.

        The weight matrix concatenates ``[I * 2^15 mod p_j | I]`` for
        the integer parts of ``t * p / q_i`` with a block-diagonal tail
        carrying each p-channel's own term: channel j's combined
        constant ``c_j = Q~_j * (t * p / p_j) mod p_j`` multiplies only
        its own row's limbs, so Fig. 9's Blocks 2 *and* 3 come out of a
        single dgemm (see :func:`repro.rns.scale._scale_sop_gemm`).
        Built lazily and cached on the (frozen) context.
        """
        if self._gemm is None:
            self._build_gemm_tables()
        return self._gemm

    def gemm_tables_prescaled(self) -> tuple[np.ndarray, ...]:
        """Like :meth:`gemm_tables` but for inputs whose rows already
        carry their ``Q~_k`` factor (the evaluator folds those into the
        tensor step's inverse transforms): the own-term constants are
        just ``t * p / p_j mod p_j``."""
        if self._gemm_pre is None:
            self._build_gemm_tables()
        return self._gemm_pre

    def _build_gemm_tables(self) -> None:
        for prescaled in (False, True):
            p_col = self.p_basis.primes_col
            k_p = self.p_basis.size
            int15 = (self.int_table << 15) % p_col
            own = (self.p_term % p_col if prescaled
                   else (self.x_prime_mult_p * self.p_term) % p_col)
            own15 = (own << 15) % p_col
            diag_hi = np.zeros((k_p, k_p), dtype=np.int64)
            diag_lo = np.zeros((k_p, k_p), dtype=np.int64)
            np.fill_diagonal(diag_hi, own15[:, 0])
            np.fill_diagonal(diag_lo, own[:, 0])
            int_cat = np.concatenate(
                [int15, self.int_table, diag_hi, diag_lo], axis=1
            ).astype(np.float64)
            object.__setattr__(
                self, "_gemm_pre" if prescaled else "_gemm",
                (int_cat, reduction_moduli(p_col)),
            )


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
        object.__setattr__(self, "inv_primes_col", 1.0 / basis.primes_col)
        object.__setattr__(
            self, "delta_col", basis.residues_of(q // self.t)[:, None])
        object.__setattr__(
            self, "half_col", basis.residues_of(half)[:, None])
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
