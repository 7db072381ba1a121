"""Scale Q->q: division-and-rounding of residue polynomials (Sec. IV-D).

Given the residues over Q = q*p of a (centered) coefficient x, compute the
residues over q of ``round(t * x / q)``.

* :func:`scale_traditional` — exact multi-precision route (Fig. 8):
  reconstruct x, divide, round, reduce.
* :func:`scale_hps` / :func:`scale_hps_ntt` — the HPS route (Fig. 9),
  from coefficient or evaluation-domain rows: compute the result in the
  p-basis with single-word arithmetic using the tabulated integer and
  60-fractional-bit parts of ``t * p / q_i``, then base-extend from the
  p-basis back to the q-basis with the Fig. 6 lift datapath. Both
  entries run Block 1 (``x'_k = x_k Q~_k mod Q_k``) and then the one
  band kernel, :func:`_scale_band`, per polynomial on column bands: one
  dgemm whose four extra rows carry the fraction sum, one reduction,
  and the final lift, all on the thread's scratch.

Why the p-basis step is exact modulo each p-prime: expanding
``t*x/q = sum_k [x_k Q~_k]_{q_k} (t Q*_k / q) - v t p`` shows every term
except channel k's own survives reduction mod p_j because p divides it.
The scaled value satisfies |round(t*x/q)| <= t*n*q/4 < p/2 for the paper's
parameters, so the centered base extension recovers it exactly — this is
the reason the p-basis has seven primes where q has six. The rounding
itself reads the truncated 60-bit fractions, so it lands on
``round(t*x/q)`` except where ``t*x/q`` lies less than ``k_q 2^-30``
above a half-integer; there it rounds down by one, a unit of noise FV
absorbs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..parallel import map_bands
from ..utils import round_half_away
from .basis import SCALE_FRACTION_BITS, ScaleContext
from .lift import _lift_tail_gemm, _quotient_from_limbs, _tail_scratch_rows


def _check_rows(context: ScaleContext, residues: np.ndarray) -> np.ndarray:
    matrix = np.asarray(residues, dtype=batch.RESIDUE)
    expected = context.full_basis.size
    if matrix.ndim != 2 or matrix.shape[0] != expected:
        raise ParameterError(
            f"expected a ({expected} x n) residue matrix over Q, got shape "
            f"{matrix.shape}"
        )
    return matrix


def scale_hps(context: ScaleContext, residues: np.ndarray) -> np.ndarray:
    """HPS scale-and-round (Fig. 9) of coefficient rows.

    ``residues`` rows are ordered q-basis first then p-basis, matching
    how the coprocessor stores an R_Q polynomial across its RPAUs.
    Block 1 multiplies every row by its ``Q~_k``; the rest is the band
    kernel :func:`scale_hps_ntt` runs too (:func:`_scale_band`: one
    exact limb-split dgemm carrying the sum of products, the own term
    and, in four more rows, the fraction sum; one reduction; the final
    lift).
    """
    basis = context.full_basis
    matrix = _check_rows(context, residues)
    x_prime = batch.mul_mod(matrix, basis.q_tilde_col, basis.primes_col)
    out = np.empty_like(x_prime[:context.q_basis.size])
    _scale_bands(context, x_prime[None], out[None])
    return out


def scale_hps_ntt(context: ScaleContext,
                  ntt_residues: np.ndarray) -> np.ndarray:
    """Evaluation-domain Scale Q->q: NTT rows over Q in, coefficient
    q-basis rows out.

    ``ntt_residues`` is a ``(k_Q, n)`` NTT-domain matrix over the full
    basis (q rows first, then p rows) or a ``(j, k_Q, n)`` stack — the
    tensor step's point-wise products live here. The Fig. 9 datapath
    needs coefficient values, but the Block-1 ``Q~_k`` multiplies ride
    along for free inside the stacked inverse transform, whose gemm
    plans fold the constants into their twiddle tables
    (:meth:`~repro.nttmath.batch.BasisTransformer.inverse_scaled`) —
    the single INTT the HPS quotient estimate genuinely requires, and
    the only coefficient-domain excursion of a fully resident multiply.
    It runs as the coprocessor's two RPAU batches, each on its own
    basis's tables: the q rows on the q basis with ``Q~[:k_q]``, the p
    rows on the p basis with ``Q~[k_q:]``, both writing into one
    ``(j, k_Q, n)`` array. Each polynomial of the stack then runs the
    band kernel
    :func:`_scale_band` (one dgemm whose four extra rows carry the
    fraction sum, one reduction, the final lift) on column bands,
    reading the transform's output in place. The result is a
    C-contiguous ``(j, k_q, n)`` array, so each ``result[i]`` is a
    contiguous ``(k_q, n)`` matrix.
    """
    arr = np.asarray(ntt_residues, dtype=batch.RESIDUE)
    stacked = arr.ndim == 3
    stack = arr if stacked else arr[None]
    basis = context.full_basis
    if stack.shape[1] != basis.size:
        raise ParameterError(
            f"expected ({basis.size} x n) NTT rows over Q, got shape "
            f"{arr.shape}"
        )
    x_prime = np.empty_like(stack)
    k_q = context.q_basis.size
    for rows, part in ((slice(0, k_q), context.q_basis),
                       (slice(k_q, basis.size), context.p_basis)):
        batch.basis_transformer(part.primes, stack.shape[2]).inverse_scaled(
            stack[:, rows], basis.q_tilde[rows], out=x_prime[:, rows])
    out = np.empty_like(stack[:, :k_q])
    _scale_bands(context, x_prime, out)
    return out if stacked else out[0]


def _scale_bands(context: ScaleContext, x_prime: np.ndarray,
                 out: np.ndarray) -> None:
    """Fig. 9 Blocks 2-5 over a ``(j, k_Q, n)`` stack of Block-1 rows
    into ``(j, k_q, n)`` ``out``, one polynomial at a time per band.

    The paper's Scale unit streams coefficients, and every step is
    element-wise in the coefficient column, so under a pool the columns
    run as contiguous bands, each with its own small gemms over the
    shared read-only tables (built here, before the fan-out). Banding
    cannot change a result: each float64 partial sum is an exact
    integer below 2^53 however BLAS blocks the product.
    """
    context.gemm_tables()
    context.final_lift.gemm_tables()

    def band(lo: int, hi: int) -> None:
        for idx in range(x_prime.shape[0]):
            _scale_band(context, x_prime[idx, :, lo:hi], out[idx, :, lo:hi])

    map_bands("scale.band", band, x_prime.shape[2], work=x_prime.size)


def _scale_band(context: ScaleContext, x_prime: np.ndarray,
                out: np.ndarray) -> None:
    """Fig. 9 Blocks 2-5 on one band of one polynomial, into ``out``.

    ``x_prime`` is the band's ``(k_Q, w)`` Block-1 rows (q rows first),
    read in place. Blocks 2-4 are one dgemm of the weight matrix
    (:meth:`~repro.rns.basis.ScaleContext.gemm_tables`) against the
    15-bit limbs of every row: rows ``:k_p`` are each p-channel's
    integer sum of products plus its own term, the last four the
    fraction sum's limb accumulations, which
    :func:`~repro.rns.lift._quotient_from_limbs` turns into the rounded
    fraction. Every partial sum is an integer below ``2 k_Q 2^45``
    (under 2^51), so the float64 product is exact; the rounded fraction
    joins in float and one rint-based reduction lands each channel in
    canonical [0, p_j). Block 5 base-extends that p-basis result back to
    the q-basis with the Fig. 6 lift datapath, exactly as the hardware
    does.

    Everything lives in this thread's scratch, in units of ``w``: the
    gemm output (``k_p + 4`` rows), then the limbs (``2 k_Q``), whose
    first ``k_p`` rows become the reduction's spare once the product is
    taken. The p-basis result, and in place the final lift's Block-1
    input, sits past the share :func:`~repro.rns.lift._lift_tail_gemm`
    takes, so the lift never overwrites the x' it reads; the Block-1
    product widens into the dead gemm output.
    """
    k_all, width = x_prime.shape
    table, moduli = context.gemm_tables()
    lift = context.final_lift
    k_p = lift.source.size
    rows = table.shape[0]
    y_at = max(_tail_scratch_rows(lift), rows + k_p)
    buf = batch.scratch(max(rows + 2 * k_all, y_at + k_p) * width)
    g = buf[:rows * width].reshape(rows, width)
    limbs = buf[rows * width:(rows + 2 * k_all) * width].reshape(
        2 * k_all, width)
    y_p = buf[y_at * width:(y_at + k_p) * width].view(batch.RESIDUE)[
        :k_p * width].reshape(k_p, width)
    np.right_shift(x_prime, 15, out=limbs[:k_all], casting="unsafe")
    np.bitwise_and(x_prime, (1 << 15) - 1, out=limbs[k_all:],
                   casting="unsafe")
    np.matmul(table, limbs, out=g)
    total = g[:k_p]
    np.add(total, _quotient_from_limbs(g[k_p:], SCALE_FRACTION_BITS),
           out=total)
    batch.reduce_exact(total, moduli, y_p, limbs[:k_p].reshape(-1),
                       lazy=False)
    # Block 5: the final lift's Block 1, x' = y_p q~ mod p, in place.
    wide = g[:k_p].view(np.int64)
    np.multiply(y_p, lift.source.q_tilde_col, out=wide)
    np.remainder(wide, lift.source.primes_col, out=y_p, casting="unsafe")
    _lift_tail_gemm(lift, y_p, out)


def scale_traditional(context: ScaleContext,
                      residues: np.ndarray) -> np.ndarray:
    """Exact multi-precision scale-and-round (Fig. 8).

    Reconstructs the centered value over Q, computes round(t*x/q), and
    reduces modulo the q-basis primes. This is the functional model of the
    slower coprocessor variant (Sec. VI-C).
    """
    matrix = _check_rows(context, residues)
    coeffs = context.full_basis.reconstruct_coeffs_centered(matrix)
    q = context.q_basis.modulus
    scaled = [round_half_away(context.t * c, q) for c in coeffs]
    return np.array(
        [[v % qi for v in scaled] for qi in context.q_basis.primes],
        dtype=batch.RESIDUE,
    )
