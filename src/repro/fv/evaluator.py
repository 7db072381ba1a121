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
4. ``WordDecomp`` + ``ReLin`` (:func:`~repro.fv.keyswitch.key_switch`)
   with the relinearisation key, whose
   :class:`~repro.rns.decompose.WordDecomp` picks the digits: the
   default is the paper's six raw residue rows, grouped RNS digits and
   signed base-2^b digits take the same :meth:`Evaluator.relinearize`.

Every parameter set reaching here was checked against the NTT engine's
envelope when it was built (:class:`~repro.params.ParameterSet`), so
there is no second datapath. Operands and products live in the
evaluation domain, as the paper's Table I Mult starts and ends on
NTT-domain registers; coefficients exist only inside steps 1 and 3-4.
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

    Operands are evaluation-domain ciphertexts, or already lifted
    (:class:`Lifted`); the products are bit-identical either way.
    """

    def __init__(self, context: FvContext) -> None:
        self.context = context

    def lift(self, *cts: Ciphertext) -> tuple[Lifted, ...]:
        """Lift q->Q of two-part ciphertexts, one :class:`Lifted` each.

        Every part goes through one stacked
        :func:`~repro.rns.lift.lift_hps_ntt` call: its q-channel rows
        pass straight through as the leading channels of its full-basis
        operand (only the Fig. 6 quotient estimate reads coefficient
        values). The lift is deterministic, so a :class:`Lifted` may
        stand in for its ciphertext in any number of Mults.
        """
        if not cts:
            return ()
        for ct in cts:
            if ct.size != 2:
                raise ParameterError("lift expects two-part ciphertexts")
            ct.require_ntt("Lift q->Q")
        parts = [part for ct in cts for part in ct.parts]
        with maybe_span("mult.lift", kind="kernel", parts=len(parts)):
            rows = lift_hps_ntt(
                self.context.lift_ctx,
                np.stack([part.residues for part in parts]), lazy=True,
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
        the point-wise reductions below absorb (the products widen into
        int64 scratch: under 2^62, the cross term under 2^63); they are
        stored canonically, so they do not depend on whether the
        operands were lifted ahead of time.
        """
        square = a is b
        operands = (a,) if square else (a, b)
        fresh = iter(self.lift(*[op for op in operands
                                 if isinstance(op, Ciphertext)]))
        rows = [(op if isinstance(op, Lifted) else next(fresh)).rows
                for op in operands]
        (a0, a1), (b0, b1) = rows[0], rows[-1]
        full_col = self.context.full_basis.primes_col
        prods = np.empty((3, *a0.shape), dtype=batch.RESIDUE)

        def products(c0: int, c1: int) -> None:
            # Pure element-wise passes on one channel band; any tile
            # split yields the exact same entries as one full pass.
            size = (c1 - c0) * a0.shape[1]
            wide, cross = batch.scratch(2 * size).view(np.int64)[
                :2 * size].reshape(2, c1 - c0, -1)
            col = full_col[c0:c1].astype(np.int64)  # unbuffered remainders
            np.multiply(a0[c0:c1], b0[c0:c1], out=wide, dtype=np.int64)
            np.remainder(wide, col, out=prods[0][c0:c1], casting="unsafe")
            np.multiply(a0[c0:c1], b1[c0:c1], out=wide, dtype=np.int64)
            if square:
                wide <<= 1
            else:
                np.multiply(a1[c0:c1], b0[c0:c1], out=cross, dtype=np.int64)
                wide += cross
            np.remainder(wide, col, out=prods[1][c0:c1], casting="unsafe")
            np.multiply(a1[c0:c1], b1[c0:c1], out=wide, dtype=np.int64)
            np.remainder(wide, col, out=prods[2][c0:c1], casting="unsafe")

        with maybe_span("mult.tensor", kind="kernel"):
            map_bands("tensor.band", products, len(full_col),
                      work=prods.size)
        return prods

    def multiply_raw(self, a: Ciphertext | Lifted,
                     b: Ciphertext | Lifted) -> Ciphertext:
        """FV.Mult without relinearisation: a three-part ciphertext.

        The tensor products stay in the evaluation domain until
        :func:`~repro.rns.scale.scale_hps_ntt` consumes them: one
        stacked scaled inverse transform recovers the prescaled
        coefficient values Fig. 9 needs, and Scale's band kernel runs
        on each part in place. The output is coefficient-domain — c2's
        raw residue rows are what WordDecomp broadcasts — and
        bit-identical whether the inputs were lifted ahead of time or
        not. Each part adopts its contiguous ``(k_q, n)`` slice of
        Scale's result without a copy.
        """
        products = self._tensor_ntt(a, b)
        with maybe_span("mult.scale", kind="kernel"):
            scaled = scale_hps_ntt(self.context.scale_ctx, products)
        parts = tuple(RnsPoly.trusted(self.context.q_basis, scaled[i])
                      for i in range(3))
        return Ciphertext(parts, self.context.params)

    def relinearize(self, ct: Ciphertext, relin: RelinKey,
                    resident: object = None) -> Ciphertext:
        """ReLin: fold c2 back into (c0, c1) with any relinearisation key.

        WordDecomp follows the key's decomposition. Raw residue rows
        (the default key) take the fused WordDecomp + NTT: each row of
        c2 is transformed under every channel directly — one broadcast
        transform per digit row, whose stage-0 dgemm covers all
        channels — and left lazy in [0, 2q). Every other decomposition
        computes its exact digit rows and forward-transforms them.
        Either way :func:`~repro.fv.keyswitch.key_switch` folds the
        digits against the key into the evaluation-domain result.
        ``ct`` is a three-part raw product as Scale leaves it, in the
        coefficient domain. ``resident`` is a ledger shim, accepted and
        ignored: benchmarks/ledger/probes.py (``fv.relinearize_ms``)
        still passes it.
        """
        if ct.size != 3:
            raise ParameterError("relinearize expects a three-part ciphertext")
        if ct.ntt_resident:
            raise ParameterError(
                "relinearize reads c2's coefficient residues (WordDecomp); "
                "pass the raw product as multiply_raw returns it")
        context = self.context
        decomposition = relin.decomposition
        with maybe_span("keyswitch.decompose", kind="kernel"):
            if decomposition.raw_rows:
                d_ntt = batch.ntt_broadcast_rows(
                    context.params.q_primes, ct.c2.residues, lazy=True)
            else:
                d_ntt = context._ntt_rows(decomposition.digit_rows(
                    context.q_basis, ct.c2.residues))
        return key_switch(context, d_ntt, relin.pairs, (ct.c0, ct.c1))

    def multiply(self, a: Ciphertext | Lifted, b: Ciphertext | Lifted,
                 relin: RelinKey, resident: object = None) -> Ciphertext:
        """Full FV.Mult as in paper Fig. 2 (tensor, scale, relinearise):
        evaluation-domain operands (or the :class:`Lifted` rows of an
        earlier :meth:`lift`) in, an evaluation-domain product out.
        ``resident`` is a ledger shim, accepted and ignored:
        benchmarks/ledger/probes.py (``fv.multiply_ms``) still passes it.
        """
        return self.relinearize(self.multiply_raw(a, b), relin)
