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
    matrix = np.asarray(residues, dtype=batch.RESIDUE)
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
    # multiple of 2^89 (tests/test_rns.py checks it against big integers).
    half = 1 << (RECIP_FRACTION_BITS - 1 - 30)  # 2^88 expressed in 2^30 units
    carry = s_lo >> 30
    return (s_hi + half + carry) >> (RECIP_FRACTION_BITS - 30)


def lift_hps(context: LiftContext, residues: np.ndarray) -> np.ndarray:
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
    x_prime = batch.mul_mod(matrix, basis.q_tilde_col, basis.primes_col)
    return _lift_block2_gemm(context, matrix, x_prime)


def _lift_block2_gemm(context: LiftContext, matrix: np.ndarray,
                      x_prime: np.ndarray) -> np.ndarray:
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
    out = np.empty((len(context.target_primes), n), dtype=batch.RESIDUE)
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
    k_s, width = x_prime.shape
    full, moduli, q_mod_f = context.gemm_tables()
    rows = full.shape[0]
    # Limbs, the gemm output and the reduction's spare, from the start
    # of this thread's scratch; nothing past ``share`` is touched.
    share = _tail_scratch_rows(context) * width
    buf = batch.scratch(share)
    limbs = buf[:2 * k_s * width].reshape(2 * k_s, width)
    g = buf[2 * k_s * width:(2 * k_s + rows) * width].reshape(rows, width)
    spare = buf[(2 * k_s + rows) * width:share]
    np.right_shift(x_prime, 15, out=limbs[:k_s], casting="unsafe")
    np.bitwise_and(x_prime, (1 << 15) - 1, out=limbs[k_s:],
                   casting="unsafe")
    np.matmul(full, limbs, out=g)
    total = g[:-4]
    v = _quotient_from_limbs(g[-4:], RECIP_FRACTION_BITS)
    # Blocks 4 and 5: subtract v * (q mod t_j) (exact: both factors are
    # far below 2^26.5, the product far below 2^53), then one exact
    # reduction lands every channel in canonical [0, t_j).
    correction = spare[:total.size].reshape(total.shape)
    np.multiply(v.astype(np.float64), q_mod_f, out=correction)
    np.subtract(total, correction, out=total)
    batch.reduce_exact(total, moduli, out_tail, spare, lazy=False)
    return out_tail


def _tail_scratch_rows(context: LiftContext) -> int:
    """Rows of scratch, per column, that :func:`_lift_tail_gemm` takes
    from the start of this thread's buffer."""
    return 2 * context.source.size + 2 * context.gemm_tables()[0].shape[0]


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
    finishes them in place on the new primes' own basis (the p basis
    of Lift q->Q, the coprocessor's second RPAU batch), so no prime's
    tables are built twice. ``lazy`` sets that transform's output
    bound the way :meth:`~repro.nttmath.batch.BasisTransformer.forward`
    does.
    """
    basis = context.source
    if context.source_prefix != basis.size:
        raise ParameterError(
            "the evaluation-domain lift needs a target basis that starts "
            "with the source primes (Lift q->Q)"
        )
    arr = np.asarray(rows, dtype=batch.RESIDUE)
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
    lifted = np.empty((j, len(target_primes), n), dtype=batch.RESIDUE)
    lifted[:, :k_s] = stack
    context.gemm_tables()  # built once, read-only under the fan-out

    def band(lo: int, hi: int) -> None:
        # Fig. 6 streams coefficients: Blocks 2-5 are element-wise in
        # the column, so any band split is bit-identical to one pass.
        for idx in range(j):
            _lift_tail_gemm(context, x_prime[idx, :, lo:hi],
                            lifted[idx, k_s:, lo:hi])

    map_bands("lift.band", band, n, work=stack.size)
    new = lifted[:, k_s:]
    batch.basis_transformer(target_primes[k_s:], n).forward(
        new, lazy=lazy, out=new)
    return lifted if stacked else lifted[0]


def _quotient_from_limbs(limb_sums: np.ndarray,
                         fraction_bits: int) -> np.ndarray:
    """``floor((S + 2^(F-1)) / 2^F)`` from 15-bit limb accumulations.

    Rows hold ``S_L = sum_i x'_i * ((c_i >> 15L) & 0x7fff)`` as exact
    float64 integers below 2^50, so ``S = sum_L S_L 2^(15L)`` is the
    sum of products with the 60-bit constants ``c_i`` that carry
    ``F = fraction_bits`` fractional bits: Fig. 6's reciprocals
    (:func:`hps_quotient`'s value) or Fig. 9's fractions. Carrying 15
    bits at a time yields ``floor(S / 2^45)`` exactly (a floor of floors)
    and keeps every step below 2^51; the half, a multiple of 2^45,
    joins after, so the rounding matches the big-integer one bit for
    bit.
    """
    acc = limb_sums[0].astype(np.int64)
    for row in limb_sums[1:]:
        np.right_shift(acc, 15, out=acc)
        np.add(acc, row, out=acc, casting="unsafe")
    np.add(acc, 1 << (fraction_bits - 46), out=acc)
    np.right_shift(acc, fraction_bits - 45, out=acc)
    return acc


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
        dtype=batch.RESIDUE,
    )
