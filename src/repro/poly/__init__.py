"""Polynomial representations.

Two layers, matching the needs of the rest of the library:

* :class:`~repro.poly.dense.IntPoly` — arbitrary-precision coefficients,
  schoolbook arithmetic. The ground truth for everything.
* :class:`~repro.poly.rns_poly.RnsPoly` — a polynomial resident in an RNS
  basis (matrix of residue rows), the working format of both the FV
  evaluator and the hardware simulator. Its transforms run on the
  batched engine of :mod:`repro.nttmath.batch`; a single residue
  channel's oracle is :class:`~repro.nttmath.ntt.NegacyclicTransformer`.
"""

from .dense import IntPoly
from .rns_poly import RnsPoly

__all__ = ["IntPoly", "RnsPoly"]
