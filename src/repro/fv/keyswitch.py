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
from ..nttmath.batch import RESIDUE, add_mod
from ..obs import maybe_span
from ..parallel import map_bands
from ..poly.rns_poly import RnsPoly
from .ciphertext import Ciphertext
from .scheme import FvContext

#: Digit/key products accumulated in int64 between two reductions.
#: Digits may be lazy ([0, 2q), what ``ntt_broadcast_rows(lazy=True)``
#: emits) and key rows are canonical, so with q < 2^30 an accumulator
#: holding one reduced residue plus four products stays below
#: q + 4 * 2q * q < 2^63. Digits and key rows are residue words: a digit
#: widens once into an int64 buffer, where its products are formed.
LAZY_WINDOW = 4


def key_switch(context: FvContext, d_ntt: np.ndarray, pairs,
               parts: tuple[RnsPoly, ...]) -> Ciphertext:
    """Fold NTT-domain digits against ``pairs`` and add into ``parts``.

    ``d_ntt`` is the ``(digits, k_q, n)`` stack of transformed digits
    (one batched call at every call site — the paper's "all digits in
    flight at once" schedule), entries below 2q. The two accumulators
    ``sum_i d_i * b_i`` and ``sum_i d_i * a_i`` are formed per channel
    band, reduced every :data:`LAZY_WINDOW` terms, then stored as
    residue words.

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
        sums = [np.empty(d_ntt.shape[1:], dtype=RESIDUE) for _ in range(2)]

        def fold(lo: int, hi: int) -> None:
            # One channel band: digit order and reduction points per
            # channel are the serial schedule's, so banding is bit-invisible.
            # The digit widens once for its two products; an int64
            # column keeps the remainders unbuffered.
            acc0, acc1, tmp, wide = np.zeros((4, hi - lo, d_ntt.shape[2]), np.int64)
            col = primes_col[lo:hi].astype(np.int64)
            for i, (digit, (b_ntt, a_ntt)) in enumerate(
                    zip(d_ntt, pairs, strict=True), start=1):
                np.copyto(wide, digit[lo:hi])
                np.multiply(wide, b_ntt[lo:hi], out=tmp)
                acc0 += tmp
                np.multiply(wide, a_ntt[lo:hi], out=tmp)
                acc1 += tmp
                if i % LAZY_WINDOW == 0 and i < len(pairs):
                    acc0 %= col
                    acc1 %= col
            for acc, total in zip((acc0, acc1), sums, strict=True):
                np.remainder(acc, col, out=total[lo:hi], casting="unsafe")

        map_bands("fold.band", fold, d_ntt.shape[1], work=d_ntt.size)
        rows = [part.residues for part in parts]
        if not parts[0].ntt_domain:
            rows = list(context._ntt_rows(np.stack(rows)))
        for i, part_rows in enumerate(rows):
            # Sums of two canonical rows are < 2q: one conditional
            # subtract in 32 bits instead of an integer division.
            sums[i] = add_mod(part_rows, sums[i], primes_col)
        return Ciphertext(
            tuple(RnsPoly.trusted(context.q_basis, r, ntt_domain=True)
                  for r in sums),
            context.params,
        )
