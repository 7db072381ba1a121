"""Homomorphic multiplication — the operation the paper's hardware targets.

One datapath, the fast coprocessor's of paper Fig. 2; the hardware
compiler (:mod:`repro.hw.compiler`) emits the instruction sequence for
the same decomposition, so software and simulated hardware can be
cross-checked step by step:

1. ``Lift q->Q`` of the four input polynomials (HPS, Fig. 6) straight
   into the evaluation domain (:func:`~repro.rns.lift.lift_hps_ntt`);
2. tensor product over R_Q, point-wise per residue channel;
3. ``Scale Q->q`` of the three results (HPS, Fig. 9;
   :func:`~repro.rns.scale.scale_hps_ntt`);
4. ``WordDecomp`` + ``ReLin`` with the six-component RNS key
   (:func:`~repro.fv.keyswitch.key_switch`).

Every parameter set reaching here was checked against the NTT engine's
envelope when it was built (:class:`~repro.params.ParameterSet`), so
there is no second datapath: operands of every domain take step 1.
An operand that meets several Mults can take step 1 once, ahead of
time (:meth:`Evaluator.lift`), and be handed to each of them as the
:class:`Lifted` rows; a square (``a is b``) lifts its two parts once.

Each step runs under a ``kind="kernel"`` span (``mult.lift``,
``mult.tensor``, ``mult.scale``, ``keyswitch.decompose``,
``keyswitch.fold``) when a tracer is active, so every transform of a
Mult is attributable to the step that paid for it.

The paper's non-HPS design (Sec. VI-C) is a different coprocessor,
modelled in :mod:`repro.hw`; its exact-CRT conversions live on as
:func:`~repro.rns.lift.lift_traditional` /
:func:`~repro.rns.scale.scale_traditional`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..obs import maybe_span
from ..parallel import map_bands
from ..poly.rns_poly import RnsPoly
from ..rns.lift import lift_hps_ntt
from ..rns.scale import scale_hps_ntt
from .ciphertext import Ciphertext
from .keys import RelinKey
from .keyswitch import key_switch
from .scheme import FvContext


@dataclass(frozen=True, eq=False)
class Lifted:
    """A two-part ciphertext after Lift q->Q: its lazy ([0, 2q))
    evaluation-domain rows over the full basis, ``(2, k_total, n)``,
    read-only. What :meth:`Evaluator.lift` returns and every Mult entry
    point accepts in place of the :class:`Ciphertext` it came from."""

    rows: np.ndarray


class Evaluator:
    """Multiplication and relinearisation over one :class:`FvContext`.

    Operands may arrive in the coefficient or the evaluation domain,
    part by part, or already lifted (:class:`Lifted`); the products are
    bit-identical every way.
    """

    def __init__(self, context: FvContext) -> None:
        self.context = context
        params = context.params
        self._full_primes = params.q_primes + params.p_primes

    def lift(self, *cts: Ciphertext) -> tuple[Lifted, ...]:
        """Lift q->Q of two-part ciphertexts, one :class:`Lifted` each.

        Every part goes through one stacked
        :func:`~repro.rns.lift.lift_hps_ntt` call, each from the domain
        it arrived in: a resident part's q-channel rows pass straight
        through as the leading channels of its full-basis operand (only
        the Fig. 6 quotient estimate reads coefficient values), a
        coefficient part is extended where it stands and transformed
        forward once, over the full basis. The lift is deterministic,
        so a :class:`Lifted` may stand in for its ciphertext in any
        number of Mults.
        """
        if not cts:
            return ()
        if any(ct.size != 2 for ct in cts):
            raise ParameterError("lift expects two-part ciphertexts")
        parts = [part for ct in cts for part in ct.parts]
        with maybe_span("mult.lift", kind="kernel", parts=len(parts)):
            rows = lift_hps_ntt(
                self.context.lift_ctx,
                np.stack([part.residues for part in parts]), lazy=True,
                ntt_domain=[part.ntt_domain for part in parts],
            )
        rows.flags.writeable = False
        return tuple(Lifted(rows[i:i + 2]) for i in range(0, len(parts), 2))

    def _tensor_ntt(self, a: Ciphertext | Lifted,
                    b: Ciphertext | Lifted) -> np.ndarray:
        """NTT-domain tensor products over the full basis.

        Returns the canonical ``(3, k_total, n)`` stack of
        ``(c~0, c~1, c~2)`` in the evaluation domain. The
        :class:`Ciphertext` operands are lifted in one :meth:`lift`
        call; :class:`Lifted` ones are used as they are. A square
        (``a is b``) lifts two parts, not four, and forms three
        products: the cross term is ``2 a0 a1``, the same integer as
        ``a0 a1 + a1 a0``. The lifted rows are lazy ([0, 2q)), which
        the point-wise reductions below absorb (products stay under
        2^62 and the cross term under 2^63); the products themselves
        are reduced canonically, so they do not depend on the operands'
        domains or on whether they were lifted ahead of time.
        """
        square = a is b
        operands = (a,) if square else (a, b)
        fresh = iter(self.lift(*[op for op in operands
                                 if isinstance(op, Ciphertext)]))
        rows = [(op if isinstance(op, Lifted) else next(fresh)).rows
                for op in operands]
        (a0, a1), (b0, b1) = rows[0], rows[-1]
        full_col = np.array(self._full_primes, dtype=np.int64)[:, None]
        prods = np.empty((3 if square else 4, *a0.shape), dtype=np.int64)

        def products(c0: int, c1: int) -> None:
            # Pure element-wise passes on one channel band; any tile
            # split yields the exact same entries as one full pass.
            np.multiply(a0[c0:c1], b0[c0:c1], out=prods[0][c0:c1])
            prods[0][c0:c1] %= full_col[c0:c1]
            np.multiply(a0[c0:c1], b1[c0:c1], out=prods[1][c0:c1])
            if square:
                prods[1][c0:c1] <<= 1
            else:
                np.multiply(a1[c0:c1], b0[c0:c1], out=prods[3][c0:c1])
                prods[1][c0:c1] += prods[3][c0:c1]
            prods[1][c0:c1] %= full_col[c0:c1]
            np.multiply(a1[c0:c1], b1[c0:c1], out=prods[2][c0:c1])
            prods[2][c0:c1] %= full_col[c0:c1]

        with maybe_span("mult.tensor", kind="kernel"):
            map_bands("tensor.band", products, len(self._full_primes),
                      work=prods.size)
        return prods[:3]

    def multiply_raw(self, a: Ciphertext | Lifted,
                     b: Ciphertext | Lifted) -> Ciphertext:
        """FV.Mult without relinearisation: a three-part ciphertext.

        The tensor products stay in the evaluation domain until
        :func:`~repro.rns.scale.scale_hps_ntt` consumes them: one
        stacked scaled inverse transform recovers the prescaled
        coefficient values Fig. 9 needs (Scale is column-wise, so the
        three parts share a single triple-width gemm). The output is
        coefficient-domain — c2's raw residue rows are what WordDecomp
        broadcasts — and bit-identical whichever domain the inputs
        arrived in, or lifted ahead of time.
        """
        products = self._tensor_ntt(a, b)
        with maybe_span("mult.scale", kind="kernel"):
            scaled = scale_hps_ntt(self.context.scale_ctx, products)
        parts = tuple(
            RnsPoly.trusted(self.context.q_basis,
                            np.ascontiguousarray(scaled[i]))
            for i in range(3)
        )
        return Ciphertext(parts, self.context.params)

    def relinearize(self, ct: Ciphertext, relin: RelinKey,
                    resident: bool = False) -> Ciphertext:
        """ReLin: fold c2 back into (c0, c1) using the RNS key.

        Fused WordDecomp + NTT: each raw-residue row of c2 is
        transformed under every channel directly — one shared stage-0
        dgemm across all digits (see ``apply_broadcast_many``) — and
        left lazy in [0, 2q) for
        :func:`~repro.fv.keyswitch.key_switch`, which folds the digits
        against the key and adds into (c0, c1). ``resident=True`` asks
        for the NTT-resident result, which is what keeps a Mult-heavy
        resident chain free of coefficient round trips; (c0, c1) may
        arrive in either domain.
        """
        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        c2 = ct.c2
        with maybe_span("keyswitch.decompose", kind="kernel"):
            if c2.ntt_domain:
                # WordDecomp broadcasts raw coefficient residues; a
                # resident c2 must round-trip. The multiply pipeline
                # never produces one (multiply_raw emits coefficient
                # parts), so this conversion is visible in the
                # round-trip telemetry if it ever happens.
                batch.count_roundtrip(c2.residues.shape[0])
                c2 = c2.to_coeff()
            d_ntt = batch.ntt_broadcast_rows(self.context.params.q_primes,
                                             c2.residues, lazy=True)
        return key_switch(self.context, d_ntt, relin.pairs,
                          (ct.c0, ct.c1), resident)

    def relinearize_grouped(self, ct: Ciphertext, relin) -> Ciphertext:
        """ReLin with grouped RNS digits (60-bit group residues).

        Same key switch as :meth:`relinearize`, but with
        ``k_q / group_size`` components instead of ``k_q`` — the scaling
        mode that keeps Table V's growth model honest.
        """
        from ..rns.decompose import grouped_rns_digits

        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        context = self.context
        digits = grouped_rns_digits(context.q_basis, ct.c2.residues,
                                    relin.group_size)
        return key_switch(context, context._ntt_rows(digits), relin.pairs,
                          (ct.c0, ct.c1), resident=False)

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
        return key_switch(context, context._ntt_rows(digit_rows),
                          relin.pairs, (ct.c0, ct.c1), resident=False)

    def multiply(self, a: Ciphertext | Lifted, b: Ciphertext | Lifted,
                 relin: RelinKey, resident: bool = False) -> Ciphertext:
        """Full FV.Mult as in paper Fig. 2 (tensor, scale, relinearise).

        ``resident=True`` asks for an NTT-resident product (the
        relinearisation fold stays in the evaluation domain); the
        inputs may arrive in either domain — resident inputs take the
        evaluation-domain base extension and never round-trip through
        coefficients — or as the :class:`Lifted` rows of an earlier
        :meth:`lift`.
        """
        return self.relinearize(self.multiply_raw(a, b), relin,
                                resident=resident)
