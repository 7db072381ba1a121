"""Lift q->Q: base extension of residue polynomials (paper Sec. IV-C).

Two algorithms, as in the paper:

* :func:`lift_traditional` — exact CRT reconstruction followed by
  reduction modulo the new primes (Eq. 1, the Fig. 5 architecture). It
  involves multi-precision arithmetic, which is what makes the
  corresponding hardware slow.
* :func:`lift_hps` — the Halevi–Polyakov–Shoup approximate method (Eq. 2,
  the Fig. 6 architecture): only single-word arithmetic, with the CRT
  quotient ``v`` estimated from fixed-point reciprocals. The estimate is
  exact except when the value sits within ~2^-59 of a rounding boundary,
  in which case the lifted representative shifts by one multiple of q —
  harmless for FV (it adds a q-multiple absorbed by the scale step).

Both functions map a residue matrix over the source basis to the residue
matrix over ``target_primes`` of (a representative of) the same integers.
The HPS lift produces the *centered* representative in (-q/2, q/2]; the
traditional lift produces the standard representative in [0, q). Tests
check both against exact big-integer CRT.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..parallel import map_bands
from .basis import RECIP_FRACTION_BITS, LiftContext, RnsBasis


def _check_input(basis: RnsBasis, residues: np.ndarray) -> np.ndarray:
    matrix = np.asarray(residues, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != basis.size:
        raise ParameterError(
            f"expected a ({basis.size} x n) residue matrix, got shape "
            f"{matrix.shape}"
        )
    return matrix


def hps_quotient(basis: RnsBasis, x_prime: np.ndarray) -> np.ndarray:
    """Exact fixed-point evaluation of v' = round(sum_i x'_i / q_i).

    This reproduces Fig. 6 Block 3 bit-for-bit: each 1/q_i is the stored
    89-fractional-bit reciprocal (60 significant bits); the products are
    accumulated in split 30-bit limbs so that int64 arithmetic never
    overflows, and the final rounding is exact.
    """
    # Split accumulation: T = sum x'_i * recip_i = S_hi * 2^30 + S_lo.
    s_hi = (x_prime * basis.recip_hi_col).sum(axis=0)
    s_lo = (x_prime * basis.recip_lo_col).sum(axis=0)
    # v' = floor((T + 2^88) / 2^89); the carry propagation below is exact
    # because the discarded low 30 bits can never push the sum across a
    # multiple of 2^89 (see DESIGN.md / tests for the proof obligation).
    half = 1 << (RECIP_FRACTION_BITS - 1 - 30)  # 2^88 expressed in 2^30 units
    carry = s_lo >> 30
    return (s_hi + half + carry) >> (RECIP_FRACTION_BITS - 30)


def lift_hps(context: LiftContext, residues: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """HPS base extension (paper Eq. 2 / Fig. 6), fully vectorised.

    Returns the residues modulo ``context.target_primes`` of the centered
    representative of the input. Blocks 2-5 are one limb-split float64
    matrix product over every target prime (exact — see
    :func:`_lift_block2_gemm`); :class:`LiftContext` has already
    checked that the reciprocal tables fit the gemm's 60-bit split.
    """
    basis = context.source
    matrix = _check_input(basis, residues)
    # Block 1: x'_i = x_i * q~_i mod q_i.
    x_prime = (matrix * basis.q_tilde_col) % basis.primes_col
    return _lift_block2_gemm(context, matrix, x_prime, out)


def _lift_block2_gemm(context: LiftContext, matrix: np.ndarray,
                      x_prime: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Blocks 2-4 as one exact float64 matrix product over all targets.

    ``x_prime`` splits into 15-bit limbs and the star table is stored
    as ``[star * 2^15 mod t_j | star]``, so every BLAS partial sum is
    below ``2 * k_source * 2^45 < 2^53`` and therefore exact. The same
    dgemm also emits the four 15-bit-limb accumulations of the HPS
    quotient's fixed-point reciprocals (Fig. 6 Block 3), which
    :func:`_quotient_from_limbs` reassembles into exactly the
    :func:`hps_quotient` value. The quotient correction joins in float
    (|v| < k_source, so the product is tiny) and a single rint-based
    reduction lands every channel in canonical [0, t_j) — no integer
    division anywhere.

    Target channels whose prime is a source prime (the leading q rows
    of Lift q->Q) are copied straight from the input: every lifted
    representative is congruent to x modulo each source prime, so the
    output rows equal the input rows exactly.
    """
    n = x_prime.shape[1]
    skip = context.source_prefix
    if out is None:
        out = np.empty((len(context.target_primes), n), dtype=np.int64)
    if skip:
        out[:skip] = matrix
    _lift_tail_gemm(context, x_prime, out[skip:])
    return out


def _lift_tail_gemm(context: LiftContext, x_prime: np.ndarray,
                    out_tail: np.ndarray) -> np.ndarray:
    """The Fig. 6 Blocks 2-5 gemm for the *non-prefix* target channels.

    Separated from :func:`_lift_block2_gemm` so the evaluation-domain
    entry point (:func:`lift_hps_ntt`) can run exactly this arithmetic
    — the only part of the lift that genuinely needs coefficient
    values — while the prefix channels stay resident in the NTT domain.
    """
    k_s = x_prime.shape[0]
    skip = context.source_prefix
    star_cat, t_col_f, inv_t_col, q_mod_f = context.gemm_tables()
    limbs = np.empty((2 * k_s, x_prime.shape[1]), dtype=np.float64)
    np.right_shift(x_prime, 15, out=limbs[:k_s], casting="unsafe")
    np.bitwise_and(x_prime, (1 << 15) - 1, out=limbs[k_s:],
                   casting="unsafe")
    g = star_cat @ limbs
    total = g[:-4]
    v = _quotient_from_limbs(g[-4:])
    # Blocks 4 and 5: subtract v * (q mod t_j) (exact: both factors are
    # far below 2^26.5, the product far below 2^53).
    total -= v.astype(np.float64)[None, :] * q_mod_f
    # Exact reduction: quotients are below 2^23, so rint(total / t) is
    # off by at most one and the remainder lands in (-t, t).
    q = np.rint(total * inv_t_col)
    total -= q * t_col_f
    total += t_col_f
    np.copyto(out_tail, total, casting="unsafe")
    reduced = out_tail - context.target_col[skip:]
    np.minimum(out_tail.view(np.uint64), reduced.view(np.uint64),
               out=out_tail.view(np.uint64))
    return out_tail


def lift_hps_ntt(context: LiftContext, rows: np.ndarray,
                 lazy: bool = True) -> np.ndarray:
    """HPS base extension in the evaluation domain: NTT rows in and out.

    ``rows`` is a ``(k_s, n)`` matrix (or ``(j, k_s, n)`` stack) of
    NTT-domain residues over the source basis; the result holds the
    NTT-domain residues of the lifted representative over every target
    prime. Two facts shape the datapath:

    * the Fig. 6 Block-1 input ``x'_i = x_i q~_i mod q_i`` is the only
      coefficient-domain quantity the lift needs. It comes out of ONE
      stacked inverse transform with the ``q~_i`` constants folded into
      the inverse gemm plan's twiddle tables
      (:func:`~repro.nttmath.batch.intt_rows_scaled`);
    * the lifted representative is congruent to x modulo every source
      prime, and the target basis must start with the source primes
      (Lift q->Q always does; any other context is a
      :class:`ParameterError`), so the target's leading channels *are*
      the input rows.

    The Blocks 2-5 gemm then fills the genuinely new target channels,
    as coefficient-column bands, and one stacked forward transform
    finishes them on the target basis's ``[k_s:]`` channel view
    (:meth:`~repro.nttmath.batch.BasisTransformer.subset`), so the new
    channels share the target basis's tables. ``lazy`` sets that
    transform's output bound the way
    :meth:`~repro.nttmath.batch.BasisTransformer.forward` does.
    """
    basis = context.source
    if context.source_prefix != basis.size:
        raise ParameterError(
            "the evaluation-domain lift needs a target basis that starts "
            "with the source primes (Lift q->Q)"
        )
    arr = np.asarray(rows, dtype=np.int64)
    stacked = arr.ndim == 3
    stack = arr if stacked else arr[None]
    if stack.shape[1] != basis.size:
        raise ParameterError(
            f"expected ({basis.size} x n) rows over the source basis, "
            f"got shape {arr.shape}"
        )
    j, k_s, n = stack.shape
    target_primes = tuple(context.target_primes)
    x_prime = batch.intt_rows_scaled(basis.primes, stack, basis.q_tilde)
    lifted = np.empty((j, len(target_primes), n), dtype=np.int64)
    lifted[:, :k_s] = stack
    context.gemm_tables()  # built once, read-only under the fan-out

    def band(lo: int, hi: int) -> None:
        # Fig. 6 streams coefficients: Blocks 2-5 are element-wise in
        # the column, so any band split is bit-identical to one pass.
        for idx in range(j):
            _lift_tail_gemm(context, x_prime[idx, :, lo:hi],
                            lifted[idx, k_s:, lo:hi])

    map_bands("lift.band", band, n, work=stack.size)
    target = batch.basis_transformer(target_primes, n)
    lifted[:, k_s:] = target.subset(k_s, len(target_primes)).forward(
        lifted[:, k_s:], lazy=lazy)
    return lifted if stacked else lifted[0]


def _quotient_from_limbs(limb_sums: np.ndarray) -> np.ndarray:
    """Reassemble :func:`hps_quotient` from 15-bit limb accumulations.

    Rows hold ``S_L = sum_i x'_i * ((recip_i >> 15L) & 0x7fff)`` as
    exact float64 integers (< 2^50). ``S0 + S1 * 2^15`` and
    ``S2 + S3 * 2^15`` are the low/high 30-bit-split sums of the
    89-fractional-bit products (both below 2^63), so the rounding
    matches the reference bit for bit.
    """
    s0 = limb_sums[0].astype(np.int64)
    s1 = limb_sums[1].astype(np.int64)
    s2 = limb_sums[2].astype(np.int64)
    s3 = limb_sums[3].astype(np.int64)
    s_lo = s0 + (s1 << 15)
    s_hi = s2 + (s3 << 15)
    half = 1 << (RECIP_FRACTION_BITS - 1 - 30)
    return (s_hi + half + (s_lo >> 30)) >> (RECIP_FRACTION_BITS - 30)


def lift_hps_reference(context: LiftContext,
                       residues: np.ndarray) -> np.ndarray:
    """Big-integer re-evaluation of the HPS formula (for testing).

    Computes exactly the same quantity as :func:`lift_hps` but with
    unbounded Python integers, proving the limb-split arithmetic exact.
    """
    basis = context.source
    matrix = _check_input(basis, residues)
    n = matrix.shape[1]
    out = np.empty((len(context.target_primes), n), dtype=np.int64)
    half = 1 << (RECIP_FRACTION_BITS - 1)
    for col in range(n):
        x_prime = [
            int(matrix[i, col]) * basis.q_tilde[i] % basis.primes[i]
            for i in range(basis.size)
        ]
        total = sum(
            xp * basis.recip[i] for i, xp in enumerate(x_prime)
        )
        v = (total + half) >> RECIP_FRACTION_BITS
        value = sum(
            xp * basis.q_star[i] for i, xp in enumerate(x_prime)
        ) - v * basis.modulus
        for j, t_j in enumerate(context.target_primes):
            out[j, col] = value % t_j
    return out


def lift_traditional(context: LiftContext,
                     residues: np.ndarray) -> np.ndarray:
    """Exact CRT lift (paper Eq. 1 / Fig. 5).

    Reconstructs every coefficient with multi-precision arithmetic (the
    costly part the Fig. 5 architecture pays for with its long-integer
    division block) and reduces modulo the target primes.
    """
    basis = context.source
    matrix = _check_input(basis, residues)
    coeffs = basis.reconstruct_coeffs(matrix)
    return np.array(
        [[c % t for c in coeffs] for t in context.target_primes],
        dtype=np.int64,
    )
