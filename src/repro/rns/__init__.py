"""Residue Number System arithmetic (paper Sections III-B, IV-C, IV-D).

The modules here are pure residue-vector mathematics, independent of both
the FV scheme and the hardware model:

* :mod:`~repro.rns.basis` — RNS bases with every precomputed constant the
  paper stores in on-chip ROMs (q*_i, q~_i, fixed-point reciprocals, the
  integer/fractional splits of t*p/q_i).
* :mod:`~repro.rns.lift` — Lift q->Q: traditional CRT (paper Eq. 1,
  Fig. 5) and the HPS approximate-CRT method (Eq. 2, Fig. 6).
* :mod:`~repro.rns.scale` — Scale Q->q: multi-precision (Fig. 8) and HPS
  (Fig. 9) variants.
* :mod:`~repro.rns.decrypt` — the client boundary on residues: HPS
  scale to the plaintext modulus and the mixed-radix (Garner) noise
  norm, both exact.
* :mod:`~repro.rns.decompose` — :class:`WordDecomp`, the one
  relinearisation digit style (RNS digits over groups of g q-primes, g = 1
  the raw residue rows, or signed base-2^b digits): keygen weights, exact
  digit rows, hw ``DIGIT`` metadata.
"""

from .basis import LiftContext, RnsBasis, ScaleContext
from .decompose import (
    WordDecomp,
    signed_digit_decompose,
)
from .lift import lift_hps, lift_traditional
from .scale import scale_hps, scale_traditional

__all__ = [
    "RnsBasis",
    "LiftContext",
    "ScaleContext",
    "lift_hps",
    "lift_traditional",
    "scale_hps",
    "scale_traditional",
    "signed_digit_decompose",
    "WordDecomp",
]
