"""Homomorphic multiplication — the operation the paper's hardware targets.

The steps mirror paper Fig. 2 exactly; each private helper corresponds to
one box of that figure, and the hardware compiler
(:mod:`repro.hw.compiler`) emits the instruction sequence for the same
decomposition, so software and simulated hardware can be cross-checked
step by step:

1. ``Lift q->Q`` of the four input polynomials (HPS, Fig. 6);
2. tensor product over R_Q via per-residue NTTs;
3. ``Scale Q->q`` of the three results (HPS, Fig. 9);
4. ``WordDecomp`` + ``ReLin`` with the six-component RNS key.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..nttmath.batch import intt_rows, ntt_rows
from ..parallel import active_executor, map_bands, map_tiles
from ..poly.rns_poly import RnsPoly
from ..rns.lift import lift_hps, lift_hps_ntt, lift_traditional
from ..rns.scale import scale_hps, scale_hps_ntt, scale_traditional
from .ciphertext import Ciphertext
from .keys import RelinKey
from .scheme import FvContext


class Evaluator:
    """Multiplication and relinearisation over one :class:`FvContext`.

    ``use_hps=True`` (default) follows the paper's fast coprocessor;
    ``use_hps=False`` switches both conversions to the traditional
    multi-precision CRT route of the slower coprocessor (Sec. VI-C), which
    is functionally identical but reproduces a different cost profile.
    """

    #: Safe lazy-accumulation width: summands are < 2^60 (products of
    #: 30-bit residues), so eight of them stay below int64 overflow.
    _LAZY_TERMS = 8

    def __init__(self, context: FvContext, use_hps: bool = True) -> None:
        self.context = context
        self.use_hps = use_hps
        params = context.params
        self._full_primes = params.q_primes + params.p_primes

    # -- Fig. 2 boxes ------------------------------------------------------------

    def _lift(self, poly: RnsPoly,
              out: np.ndarray | None = None) -> np.ndarray:
        """Lift q->Q: returns (k_total x n) residues over the full basis.

        ``out``, when given, receives the result in place (the tensor
        step lifts all four operands straight into its stacked
        transform input).
        """
        if self.use_hps:
            return lift_hps(self.context.lift_ctx, poly.residues, out)
        rows = lift_traditional(self.context.lift_ctx, poly.residues)
        if out is not None:
            out[...] = rows
            return out
        return rows

    def _scale(self, residues: np.ndarray) -> RnsPoly:
        """Scale Q->q: returns an R_q polynomial."""
        rows = (scale_hps(self.context.scale_ctx, residues)
                if self.use_hps
                else scale_traditional(self.context.scale_ctx, residues))
        # Both scale routes produce canonical residues.
        return RnsPoly.trusted(self.context.q_basis, rows)

    def _full_ntt_lazy(self, residues: np.ndarray) -> np.ndarray:
        """Forward NTT with lazy [0, 2q) outputs where the batched
        engine runs; canonical (a subset of lazy) via the guarded
        dispatcher otherwise, so large-degree or wide-prime parameter
        sets degrade instead of crashing."""
        from ..nttmath.batch import basis_transformer, batched_engine_ok

        n = self.context.params.n
        if not batched_engine_ok(self._full_primes, n):
            return ntt_rows(self._full_primes, residues)
        return basis_transformer(self._full_primes, n).forward(
            residues, lazy=True
        )

    def tensor(self, a: Ciphertext, b: Ciphertext) -> tuple[np.ndarray, ...]:
        """Lift both ciphertexts and form (c~0, c~1, c~2) over the full basis.

        All four lifted operands go through one stacked forward call and
        the three tensor parts through one stacked inverse call — the
        limb-parallel schedule of the paper's Fig. 2 datapath. The cross
        term accumulates both 60-bit products before a single reduction.
        """
        return tuple(intt_rows(self._full_primes, self._tensor_ntt(a, b)))

    @property
    def resident_tensor_ok(self) -> bool:
        """Can the evaluation-domain tensor path serve this context?

        The resident lift needs the target basis to start with the
        source primes (Lift q->Q always does), 60-bit-safe reciprocal
        tables, and the batched engine on every basis involved. Also
        read by the domain planner in
        :class:`~repro.api.backends.LocalBackend` to decide whether
        MULTIPLY inputs may stay NTT-resident.
        """
        params = self.context.params
        lift_ctx = self.context.lift_ctx
        n = params.n
        return (self.use_hps
                and lift_ctx.gemm_safe
                and lift_ctx.source_prefix == params.k_q
                and batch.batched_engine_ok(params.q_primes, n)
                and batch.batched_engine_ok(params.p_primes, n)
                and batch.batched_engine_ok(self._full_primes, n))

    def _tensor_ntt(self, a: Ciphertext,
                    b: Ciphertext) -> np.ndarray:
        """NTT-domain tensor products over the full basis.

        Returns the canonical ``(3, k_total, n)`` stack of
        ``(c~0, c~1, c~2)`` in the evaluation domain — the shared core
        of :meth:`tensor` and :meth:`multiply_raw`. Resident operands
        take the evaluation-domain lift (:func:`lift_hps_ntt`): their
        q-channel rows pass straight through as the leading channels of
        the full-basis operands (zero coefficient round trips), and
        only the Fig. 6 quotient estimate visits coefficients, via one
        stacked scaled inverse transform of all four operands.
        Coefficient operands keep the legacy in-place lift + stacked
        lazy forward. Both routes produce bit-identical products: the
        Block-1 ``x'`` values agree exactly, the lazy/canonical input
        bounds both stay inside the point-wise reductions' headroom,
        and the products are reduced canonically before returning.
        """
        if a.size != 2 or b.size != 2:
            raise ParameterError("tensor expects two-part ciphertexts")
        full_col = np.array(self._full_primes, dtype=np.int64)[:, None]
        k_total = len(self._full_primes)
        n = self.context.params.n
        resident = ((a.ntt_resident or b.ntt_resident)
                    and self.resident_tensor_ok)
        if resident:
            # Align both operands on the evaluation domain (forward
            # transforms only — never a round trip) and lift the four
            # resident q-row matrices in one stacked call.
            a = self.context.to_ntt_ct(a)
            b = self.context.to_ntt_ct(b)
            stack = np.stack([a.c0.residues, a.c1.residues,
                              b.c0.residues, b.c1.residues])
            ops = lift_hps_ntt(self.context.lift_ctx, stack, lazy=True)
            a0, a1, b0, b1 = ops
            prods = np.empty_like(ops)
        else:
            a = self.context.to_coeff_ct(a)
            b = self.context.to_coeff_ct(b)
            lifted = np.empty((4, k_total, n), dtype=np.int64)
            parts = (a.c0, a.c1, b.c0, b.c1)
            executor = active_executor()
            if executor.workers > 1 and self.use_hps:
                # The four lifts are independent gemms over shared
                # read-only tables; materialise the tables once here so
                # worker threads only ever read them.
                self.context.lift_ctx.gemm_tables()
                map_tiles(
                    executor, "lift.band",
                    lambda tile: self._lift(parts[tile[0]],
                                            lifted[tile[0]]),
                    [(idx,) for idx in range(4)],
                )
            else:
                for idx, part in enumerate(parts):
                    self._lift(part, lifted[idx])
            # Lazy forward transforms: entries land in [0, 2q), which
            # the point-wise reductions below absorb (products stay
            # under 2^62 and the cross pair under 2^63).
            a0, a1, b0, b1 = self._full_ntt_lazy(lifted)
            prods = lifted  # reuse: the forwards no longer need it

        def products(c0: int, c1: int) -> None:
            # Pure element-wise passes on one channel band; any tile
            # split yields the exact same entries as one full pass.
            np.multiply(a0[c0:c1], b0[c0:c1], out=prods[0][c0:c1])
            prods[0][c0:c1] %= full_col[c0:c1]
            np.multiply(a0[c0:c1], b1[c0:c1], out=prods[1][c0:c1])
            np.multiply(a1[c0:c1], b0[c0:c1], out=prods[3][c0:c1])
            prods[1][c0:c1] += prods[3][c0:c1]
            prods[1][c0:c1] %= full_col[c0:c1]
            np.multiply(a1[c0:c1], b1[c0:c1], out=prods[2][c0:c1])
            prods[2][c0:c1] %= full_col[c0:c1]

        map_bands("tensor.band", products, k_total, work=prods.size)
        return prods[:3]

    def multiply_raw(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """FV.Mult without relinearisation: a three-part ciphertext.

        The tensor products stay in the evaluation domain until
        :func:`~repro.rns.scale.scale_hps_ntt` consumes them: one
        stacked scaled inverse transform recovers the prescaled
        coefficient values Fig. 9 needs (Scale is column-wise, so the
        three parts share a single triple-width gemm). The output is
        coefficient-domain — c2's raw residue rows are what WordDecomp
        broadcasts — and bit-identical whichever domain the inputs
        arrived in. The ``use_hps=False`` slow-coprocessor model scales
        one part per call through the traditional CRT route.
        """
        if not self.use_hps:
            t0, t1, t2 = self.tensor(a, b)
            parts = (self._scale(t0), self._scale(t1), self._scale(t2))
            return Ciphertext(parts, self.context.params)
        scaled = scale_hps_ntt(self.context.scale_ctx,
                               self._tensor_ntt(a, b))
        parts = tuple(
            RnsPoly.trusted(self.context.q_basis,
                            np.ascontiguousarray(scaled[i]))
            for i in range(3)
        )
        return Ciphertext(parts, self.context.params)

    def _fold_keyswitch(self, ct: Ciphertext, d_ntt: np.ndarray,
                        pairs, lazy_digits: bool = False,
                        resident: bool = False) -> Ciphertext:
        """Fold the NTT-domain digit/key sum of products back into (c0, c1).

        ``d_ntt`` holds the already-transformed digits (one stacked
        batched call at every call site — the paper's "all digits in
        flight at once" schedule). Products of 30-bit residues are
        below 2^60, so up to eight accumulate lazily in int64 before a
        reduction; both accumulators share one stacked inverse call.

        With ``resident=True`` (batched engine only) the accumulators
        never leave the evaluation domain: instead of inverse-
        transforming them, (c0, c1) are forward-transformed (one
        stacked call, or reused as-is when already resident) and the
        sums are formed in the NTT domain — the transform count is the
        same, but the result is born NTT-resident, which is what keeps
        a Mult-heavy resident chain free of coefficient round trips.
        The NTT being linear and every row canonical, the resident
        result is exactly the forward transform of the legacy one.
        """
        context = self.context
        primes_col = context.q_basis.primes_col
        acc0 = np.zeros_like(ct.c0.residues)
        acc1 = np.zeros_like(ct.c1.residues)
        # Lazy [0, 2q) digits double each summand, so halve the
        # accumulation window (4 * 2 * q^2 still fits int64).
        window = self._LAZY_TERMS // 2 if lazy_digits \
            else self._LAZY_TERMS

        def fold(c0: int, c1: int) -> None:
            # One channel band of the digit-pair accumulation: the
            # digit order and reduction window per channel are the
            # serial schedule exactly, so banding is bit-invisible.
            pending = 0
            tmp = np.empty_like(acc0[c0:c1])
            for i, (b_ntt, a_ntt) in enumerate(pairs):
                np.multiply(d_ntt[i][c0:c1], b_ntt[c0:c1], out=tmp)
                acc0[c0:c1] += tmp
                np.multiply(d_ntt[i][c0:c1], a_ntt[c0:c1], out=tmp)
                acc1[c0:c1] += tmp
                pending += 1
                if pending == window:
                    acc0[c0:c1] %= primes_col[c0:c1]
                    acc1[c0:c1] %= primes_col[c0:c1]
                    pending = 0
            if pending:
                acc0[c0:c1] %= primes_col[c0:c1]
                acc1[c0:c1] %= primes_col[c0:c1]

        map_bands("fold.band", fold, acc0.shape[0], work=d_ntt.size)
        if resident:
            # Evaluation-domain fold: bring (c0, c1) to the NTT domain
            # (free when the chain already is) and add the accumulators
            # where they live.
            if ct.c0.ntt_domain and ct.c1.ntt_domain:
                c0_ntt, c1_ntt = ct.c0.residues, ct.c1.residues
            elif ct.c0.ntt_domain or ct.c1.ntt_domain:
                aligned = context.to_ntt_ct(
                    Ciphertext((ct.c0, ct.c1), context.params)
                )
                c0_ntt = aligned.c0.residues
                c1_ntt = aligned.c1.residues
            else:
                c0_ntt, c1_ntt = context._ntt_rows(np.stack(
                    [ct.c0.residues, ct.c1.residues]
                ))
            c0_rows = c0_ntt + acc0
            c1_rows = c1_ntt + acc1
        else:
            delta0, delta1 = context._intt_rows(np.stack([acc0, acc1]))
            c0_rows = ct.c0.residues + delta0
            c1_rows = ct.c1.residues + delta1
        # Sums of two canonical rows are < 2q: one unsigned-minimum
        # conditional subtract instead of an integer division.
        for rows in (c0_rows, c1_rows):
            over = rows - primes_col
            np.minimum(rows.view(np.uint64), over.view(np.uint64),
                       out=rows.view(np.uint64))
        return Ciphertext(
            (RnsPoly.trusted(context.q_basis, c0_rows,
                             ntt_domain=resident),
             RnsPoly.trusted(context.q_basis, c1_rows,
                             ntt_domain=resident)),
            context.params,
        )

    def relinearize(self, ct: Ciphertext, relin: RelinKey,
                    resident: bool = False) -> Ciphertext:
        """ReLin: fold c2 back into (c0, c1) using the RNS key.

        The sum of products runs in the NTT domain. By default its two
        accumulator polynomials are inverse-transformed once and added
        to c~0/c~1 in the coefficient domain — the ordering that
        yields the paper's 14 NTT + 8 INTT instruction counts. With
        ``resident=True`` the fold happens in the evaluation domain
        instead and the result is born NTT-resident (see
        :meth:`_fold_keyswitch`).
        """
        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        context = self.context
        if ct.c2.ntt_domain:
            # WordDecomp broadcasts raw coefficient residues; a
            # resident c2 must round-trip. The multiply pipeline never
            # produces one (multiply_raw emits coefficient parts), so
            # this conversion is visible in the round-trip telemetry if
            # it ever happens.
            batch.count_roundtrip(ct.c2.residues.shape[0])
            ct = Ciphertext((ct.c0, ct.c1, ct.c2.to_coeff()),
                            context.params)
        if len(relin.pairs) != ct.c2.residues.shape[0]:
            raise ParameterError(
                "relinearisation key does not match the RNS decomposition"
            )
        # Fused WordDecomp + NTT: each raw-residue digit row is
        # transformed under every channel directly — one shared stage-0
        # dgemm across all digits (see apply_broadcast_many) — left
        # lazy in [0, 2q) (the narrower accumulation window below
        # absorbs it).
        d_ntt = batch.ntt_broadcast_rows(context.params.q_primes,
                                         ct.c2.residues, lazy=True)
        return self._fold_keyswitch(ct, d_ntt, relin.pairs,
                                    lazy_digits=True,
                                    resident=resident)

    def relinearize_grouped(self, ct: Ciphertext, relin) -> Ciphertext:
        """ReLin with grouped RNS digits (60-bit group residues).

        Same NTT-domain sum of products as :meth:`relinearize`, but with
        ``k_q / group_size`` components instead of ``k_q`` — the scaling
        mode that keeps Table V's growth model honest.
        """
        from ..rns.decompose import grouped_rns_digits

        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        context = self.context
        digits = grouped_rns_digits(context.q_basis, ct.c2.residues,
                                    relin.group_size)
        if len(relin.pairs) != digits.shape[0]:
            raise ParameterError(
                "grouped key does not match the digit count"
            )
        d_ntt = context._ntt_rows(digits)
        return self._fold_keyswitch(ct, d_ntt, relin.pairs)

    def relinearize_digit(self, ct: Ciphertext, relin) -> Ciphertext:
        """ReLin with the signed base-w digit key (slow coprocessor).

        Decomposes c2's centered big-integer coefficients into
        ``relin.num_components`` signed digits; needs the CRT
        reconstruction the traditional architecture performs anyway.
        """
        from ..rns.decompose import decompose_poly_signed

        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        context = self.context
        params = context.params
        coeffs = ct.c2.to_int_coeffs()
        digit_polys = decompose_poly_signed(
            coeffs, params.q, 1 << relin.base_bits, relin.num_components
        )
        # Digits may exceed 64 bits (e.g. 90-bit digits); reduce each
        # channel with exact integer arithmetic before vectorising.
        digit_rows = np.stack([
            np.array(
                [[d % p for d in digits] for p in params.q_primes],
                dtype=np.int64,
            )
            for digits in digit_polys
        ])
        d_ntt = context._ntt_rows(digit_rows)
        return self._fold_keyswitch(ct, d_ntt, relin.pairs)

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relin: RelinKey, resident: bool = False) -> Ciphertext:
        """Full FV.Mult as in paper Fig. 2 (tensor, scale, relinearise).

        ``resident=True`` asks for an NTT-resident product (the
        relinearisation fold stays in the evaluation domain); the
        inputs may arrive in either domain — resident inputs take the
        evaluation-domain base extension and never round-trip through
        coefficients.
        """
        return self.relinearize(self.multiply_raw(a, b), relin,
                                resident=resident)
