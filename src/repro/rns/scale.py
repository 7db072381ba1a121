"""Scale Q->q: division-and-rounding of residue polynomials (Sec. IV-D).

Given the residues over Q = q*p of a (centered) coefficient x, compute the
residues over q of ``round(t * x / q)``.

* :func:`scale_traditional` — exact multi-precision route (Fig. 8):
  reconstruct x, divide, round, reduce.
* :func:`scale_hps` — the HPS route (Fig. 9): compute the result in the
  p-basis with single-word arithmetic using the tabulated integer and
  60-fractional-bit parts of ``t * p / q_i``, then base-extend from the
  p-basis back to the q-basis with the Fig. 6 lift datapath.

Why the p-basis step is exact modulo each p-prime: expanding
``t*x/q = sum_k [x_k Q~_k]_{q_k} (t Q*_k / q) - v t p`` shows every term
except channel k's own survives reduction mod p_j because p divides it.
The scaled value satisfies |round(t*x/q)| <= t*n*q/4 < p/2 for the paper's
parameters, so the centered base extension recovers it exactly — this is
the reason the p-basis has seven primes where q has six.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..parallel import map_bands
from ..utils import round_half_away
from .basis import SCALE_FRACTION_BITS, RnsBasis, ScaleContext
from .lift import lift_hps


def _split_rows(context: ScaleContext, residues: np.ndarray) -> tuple:
    matrix = np.asarray(residues, dtype=np.int64)
    expected = context.q_basis.size + context.p_basis.size
    if matrix.ndim != 2 or matrix.shape[0] != expected:
        raise ParameterError(
            f"expected a ({expected} x n) residue matrix over Q, got shape "
            f"{matrix.shape}"
        )
    return matrix[: context.q_basis.size], matrix[context.q_basis.size:]


def scale_hps(context: ScaleContext, residues: np.ndarray,
              prescaled: bool = False) -> np.ndarray:
    """HPS scale-and-round (Fig. 9), fully vectorised and bit-exact.

    ``residues`` rows are ordered q-basis first then p-basis, matching
    how the coprocessor stores an R_Q polynomial across its RPAUs. The
    per-output-channel integer sum of products is one limb-split
    float64 matrix product (exact, same argument as the lift's Block 2).

    Every step is element-wise in the coefficient column — the paper's
    Scale unit streams coefficients — so under a pool the columns run
    as contiguous bands, each with its own small gemms over the shared
    read-only tables (built here, before the fan-out). Banding cannot
    change a result: each float64 partial sum is an exact integer
    below 2^53 however BLAS blocks the product.
    """
    q_rows, p_rows = _split_rows(context, residues)
    if prescaled:
        context.gemm_tables_prescaled()
    else:
        context.gemm_tables()
    context.final_lift.gemm_tables()
    out = np.empty((context.q_basis.size, q_rows.shape[1]), dtype=np.int64)

    def band(lo: int, hi: int) -> None:
        _scale_columns(context, q_rows[:, lo:hi], p_rows[:, lo:hi],
                       prescaled, out[:, lo:hi])

    map_bands("scale.band", band, q_rows.shape[1],
              work=q_rows.size + p_rows.size)
    return out


def _scale_columns(context: ScaleContext, q_rows: np.ndarray,
                   p_rows: np.ndarray, prescaled: bool,
                   out: np.ndarray) -> None:
    """Fig. 9 on one band of coefficient columns, into ``out``."""
    # Fig. 9 Block 1/2 prep: x'_i = x_i * Q~_i mod q_i for the q-basis
    # part. ``prescaled=True`` means the caller already folded the Q~_i
    # factors into its inverse transforms (see Evaluator.multiply_raw),
    # so the rows arrive as x' directly.
    x_prime_q = (q_rows if prescaled
                 else (q_rows * context.x_prime_mult_q)
                 % context.q_basis.primes_col)
    # Fractional accumulation sop_R = round(sum_i x'_i * R_i) via split
    # 30-bit limbs (exact; see rns.lift.hps_quotient for the argument).
    s_hi = (x_prime_q * context.frac_hi_col).sum(axis=0)
    s_lo = (x_prime_q * context.frac_lo_col).sum(axis=0)
    half = 1 << (SCALE_FRACTION_BITS - 1 - 30)
    rounded = (s_hi + half + (s_lo >> 30)) >> (SCALE_FRACTION_BITS - 30)
    y_p = _scale_sop_gemm(context, x_prime_q, p_rows, rounded, prescaled)
    # Fig. 9 Block 5: base-extend the p-basis result back to the q-basis
    # re-using the lift datapath, exactly as the hardware does.
    lift_hps(context.final_lift, y_p, out=out)


def scale_hps_ntt(context: ScaleContext,
                  ntt_residues: np.ndarray) -> np.ndarray:
    """Evaluation-domain Scale Q->q: NTT rows over Q in, coefficient
    q-basis rows out.

    ``ntt_residues`` is a ``(k_Q, n)`` NTT-domain matrix over the full
    basis (q rows first, then p rows) or a ``(j, k_Q, n)`` stack — the
    tensor step's point-wise products live here. The Fig. 9 datapath
    needs coefficient values, but the Block-1/2 ``Q~_i`` multiplies
    ride along for free inside ONE stacked inverse transform whose
    gemm plan folds the constants into its twiddle tables
    (:func:`~repro.nttmath.batch.intt_rows_scaled`), so the rows reach
    :func:`scale_hps` already prescaled — the single INTT the HPS
    quotient estimate genuinely requires, and the only
    coefficient-domain excursion of a fully resident multiply. A
    stack is scaled in one :func:`scale_hps` call by treating the
    polynomials as column blocks of a single wide matrix (exact: every
    channel's arithmetic is element-wise in the column dimension).
    """
    arr = np.asarray(ntt_residues, dtype=np.int64)
    stacked = arr.ndim == 3
    stack = arr if stacked else arr[None]
    expected = context.q_basis.size + context.p_basis.size
    if stack.shape[1] != expected:
        raise ParameterError(
            f"expected ({expected} x n) NTT rows over Q, got shape "
            f"{arr.shape}"
        )
    j, k, n = stack.shape
    full_primes = context.q_basis.primes + context.p_basis.primes
    prescaled = batch.intt_rows_scaled(full_primes, stack,
                                       context.full_q_tilde)
    wide = prescaled.transpose(1, 0, 2).reshape(k, j * n)
    scaled = scale_hps(context, wide, prescaled=True)
    out = scaled.reshape(context.q_basis.size, j, n).transpose(1, 0, 2)
    return out if stacked else out[0]


def _scale_sop_gemm(context: ScaleContext, x_prime_q: np.ndarray,
                    p_rows: np.ndarray, rounded: np.ndarray,
                    prescaled: bool = False) -> np.ndarray:
    """Blocks 2-4 as one exact float64 matrix product over all channels.

    The limb matrix stacks the 15-bit splits of x' (q basis) and of the
    raw p-basis rows; the weight matrix pairs them with
    ``[I * 2^15 | I]`` and a block-diagonal own-term tail (see
    :meth:`~repro.rns.basis.ScaleContext.gemm_tables`), so Fig. 9's
    integer sum of products *and* own-channel term come out of one
    dgemm. Every partial sum stays below 2^53, the rounded-fraction
    term joins in float, and one rint-based reduction lands each
    channel in canonical [0, p_j).

    The own-term fold is exact modulo p_j even though the p rows are
    unreduced: the gemm computes ``c_j * x_j`` with ``c_j`` already
    reduced, and the final reduction takes the result mod p_j.
    """
    k_q, width = x_prime_q.shape
    k_p = p_rows.shape[0]
    int_cat, moduli = (context.gemm_tables_prescaled() if prescaled
                       else context.gemm_tables())
    # Limbs, the gemm output and the reduction's spare, from this
    # thread's scratch.
    depth = 2 * k_q + 2 * k_p
    buf = batch.scratch((depth + 2 * k_p) * width)
    limbs = buf[:depth * width].reshape(depth, width)
    total = buf[depth * width:(depth + k_p) * width].reshape(k_p, width)
    np.right_shift(x_prime_q, 15, out=limbs[:k_q], casting="unsafe")
    np.bitwise_and(x_prime_q, (1 << 15) - 1,
                   out=limbs[k_q: 2 * k_q], casting="unsafe")
    np.right_shift(p_rows, 15, out=limbs[2 * k_q: 2 * k_q + k_p],
                   casting="unsafe")
    np.bitwise_and(p_rows, (1 << 15) - 1, out=limbs[2 * k_q + k_p:],
                   casting="unsafe")
    np.matmul(int_cat, limbs, out=total)
    # Fig. 9 Block 4: add the rounded fraction in float (all addends
    # below 2^52, exact), then reduce.
    np.add(total, rounded, out=total)
    y_p = np.empty((k_p, width), dtype=np.int64)
    batch.reduce_exact(total, moduli, y_p, buf[(depth + k_p) * width:],
                       lazy=False)
    return y_p


def scale_traditional(context: ScaleContext,
                      residues: np.ndarray) -> np.ndarray:
    """Exact multi-precision scale-and-round (Fig. 8).

    Reconstructs the centered value over Q, computes round(t*x/q), and
    reduces modulo the q-basis primes. This is the functional model of the
    slower coprocessor variant (Sec. VI-C).
    """
    matrix = np.asarray(residues, dtype=np.int64)
    q_rows, p_rows = _split_rows(context, residues)
    full_primes = context.q_basis.primes + context.p_basis.primes
    full_basis = RnsBasis(full_primes)
    coeffs = full_basis.reconstruct_coeffs_centered(matrix)
    q = context.q_basis.modulus
    scaled = [round_half_away(context.t * c, q) for c in coeffs]
    return np.array(
        [[v % qi for v in scaled] for qi in context.q_basis.primes],
        dtype=np.int64,
    )
