"""The key switch shared by relinearisation and the Galois rotations.

Paper Fig. 2's ReLin box, and the single KeySwitch module HEAX serves
both uses from: NTT-domain digits are multiplied into a key's ``(b, a)``
pairs, the two sums of products are reduced, and the result is added
into the ciphertext parts it belongs with. Every caller decomposes its
own digits (raw RNS rows, grouped rows, signed base-w digits, a hoisted
group's shared rows); everything after that happens here, once.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..obs import maybe_span
from ..parallel import map_bands
from ..poly.rns_poly import RnsPoly
from .ciphertext import Ciphertext
from .scheme import FvContext

#: Digit/key products accumulated in int64 between two reductions.
#: Digits may be lazy ([0, 2q), what ``ntt_broadcast_rows(lazy=True)``
#: emits) and key rows are canonical, so with q < 2^30 an accumulator
#: holding one reduced residue plus four products stays below
#: q + 4 * 2q * q < 2^63. Digits are int64 and key rows uint32
#: (relinearisation and Galois keys alike): the products are formed
#: straight into an int64 buffer.
LAZY_WINDOW = 4


def key_switch(context: FvContext, d_ntt: np.ndarray, pairs,
               parts: tuple[RnsPoly, ...]) -> Ciphertext:
    """Fold NTT-domain digits against ``pairs`` and add into ``parts``.

    ``d_ntt`` is the ``(digits, k_q, n)`` stack of transformed digits
    (one batched call at every call site — the paper's "all digits in
    flight at once" schedule), entries below 2q. The two accumulators
    ``sum_i d_i * b_i`` and ``sum_i d_i * a_i`` are formed per channel
    band, reduced every :data:`LAZY_WINDOW` terms.

    The result is the evaluation-domain two-part ciphertext
    ``(parts[0] + acc0, parts[1] + acc1)``: the accumulators are born
    there, so no inverse transform runs. Relinearisation's ``(c0, c1)``
    arrive as Scale left them, in the coefficient domain, and are
    brought over by one stacked forward transform before the add. A
    Galois switch passes ``(tau(c0),)`` only, already evaluation-domain
    — tau(c1) went into the digits, so the second accumulator is the
    new c1 as it stands.
    """
    if len(pairs) != d_ntt.shape[0]:
        raise ParameterError(
            f"key has {len(pairs)} components for {d_ntt.shape[0]} digits"
        )
    with maybe_span("keyswitch.fold", kind="kernel"):
        primes_col = context.q_basis.primes_col
        acc = [np.zeros(d_ntt.shape[1:], dtype=np.int64) for _ in range(2)]

        def fold(lo: int, hi: int) -> None:
            # One channel band: digit order and reduction points per
            # channel are the serial schedule's, so banding is bit-invisible.
            acc0, acc1 = acc[0][lo:hi], acc[1][lo:hi]
            tmp = np.empty_like(acc0)
            for i, (digit, (b_ntt, a_ntt)) in enumerate(
                    zip(d_ntt, pairs, strict=True), start=1):
                np.multiply(digit[lo:hi], b_ntt[lo:hi], out=tmp)
                acc0 += tmp
                np.multiply(digit[lo:hi], a_ntt[lo:hi], out=tmp)
                acc1 += tmp
                if i % LAZY_WINDOW == 0 or i == len(pairs):
                    acc0 %= primes_col[lo:hi]
                    acc1 %= primes_col[lo:hi]

        map_bands("fold.band", fold, d_ntt.shape[1], work=d_ntt.size)
        rows = [part.residues for part in parts]
        if not parts[0].ntt_domain:
            rows = list(context._ntt_rows(np.stack(rows)))
        for i, part_rows in enumerate(rows):
            # Sums of two canonical rows are < 2q: one unsigned-minimum
            # conditional subtract instead of an integer division.
            acc[i] = part_rows + acc[i]
            over = acc[i] - primes_col
            np.minimum(acc[i].view(np.uint64), over.view(np.uint64),
                       out=acc[i].view(np.uint64))
        return Ciphertext(
            tuple(RnsPoly.trusted(context.q_basis, r, ntt_domain=True)
                  for r in acc),
            context.params,
        )
