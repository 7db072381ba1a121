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

The paper's non-HPS design (Sec. VI-C) is a different coprocessor,
modelled in :mod:`repro.hw`; its exact-CRT conversions live on as
:func:`~repro.rns.lift.lift_traditional` /
:func:`~repro.rns.scale.scale_traditional`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..nttmath import batch
from ..parallel import map_bands
from ..poly.rns_poly import RnsPoly
from ..rns.lift import lift_hps_ntt
from ..rns.scale import scale_hps_ntt
from .ciphertext import Ciphertext
from .keys import RelinKey
from .keyswitch import key_switch
from .scheme import FvContext


class Evaluator:
    """Multiplication and relinearisation over one :class:`FvContext`.

    Operands may arrive in the coefficient or the evaluation domain,
    part by part; the products are bit-identical either way.
    """

    def __init__(self, context: FvContext) -> None:
        self.context = context
        params = context.params
        self._full_primes = params.q_primes + params.p_primes

    def _tensor_ntt(self, a: Ciphertext,
                    b: Ciphertext) -> np.ndarray:
        """NTT-domain tensor products over the full basis.

        Returns the canonical ``(3, k_total, n)`` stack of
        ``(c~0, c~1, c~2)`` in the evaluation domain. All four operand
        polynomials are lifted in one stacked
        :func:`~repro.rns.lift.lift_hps_ntt` call, each from the domain
        it arrived in: a resident part's q-channel rows pass straight
        through as the leading channels of its full-basis operand (only
        the Fig. 6 quotient estimate reads coefficient values), a
        coefficient part is extended where it stands and transformed
        forward once, over the full basis. The lifted
        rows are lazy ([0, 2q)), which the point-wise reductions below
        absorb (products stay under 2^62 and the cross pair under
        2^63); the products themselves are reduced canonically, so they
        do not depend on the operands' domains.
        """
        if a.size != 2 or b.size != 2:
            raise ParameterError("tensor expects two-part ciphertexts")
        full_col = np.array(self._full_primes, dtype=np.int64)[:, None]
        parts = (a.c0, a.c1, b.c0, b.c1)
        ops = lift_hps_ntt(
            self.context.lift_ctx,
            np.stack([part.residues for part in parts]), lazy=True,
            ntt_domain=[part.ntt_domain for part in parts],
        )
        a0, a1, b0, b1 = ops
        prods = np.empty_like(ops)

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

        map_bands("tensor.band", products, len(self._full_primes),
                  work=prods.size)
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
        arrived in.
        """
        scaled = scale_hps_ntt(self.context.scale_ctx,
                               self._tensor_ntt(a, b))
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
        if c2.ntt_domain:
            # WordDecomp broadcasts raw coefficient residues; a
            # resident c2 must round-trip. The multiply pipeline never
            # produces one (multiply_raw emits coefficient parts), so
            # this conversion is visible in the round-trip telemetry if
            # it ever happens.
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
