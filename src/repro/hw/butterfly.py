"""Butterfly core (paper Fig. 4): the arithmetic engine of the NTT.

One butterfly computes ``(u, t) -> (u + w*t, u - w*t) mod q`` through the
pipelined 30x30 multiplier, the sliding-window reduction, and the modular
add/sub. :meth:`compute` routes through the exact circuit models; it is
what the stepped NTT unit runs, the oracle the coprocessor's engine-kernel
values and closed-form cycles are tested against.
"""

from __future__ import annotations

from .datapath import ModAddSub, PipelinedMultiplier
from .modred import SlidingWindowReducer


class ButterflyCore:
    """One of the two butterfly cores inside an RPAU."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus
        self.multiplier = PipelinedMultiplier()
        self.reducer = SlidingWindowReducer(modulus)
        self.addsub = ModAddSub()

    @property
    def pipeline_depth(self) -> int:
        """Cycles from operand read to result availability."""
        return (self.multiplier.latency + self.reducer.pipeline_stages
                + self.addsub.latency)

    def compute(self, u: int, t: int, twiddle: int) -> tuple[int, int]:
        """Bit-exact single butterfly through the circuit models."""
        product = self.multiplier.multiply(int(t), int(twiddle))
        reduced = self.reducer.reduce(product)
        hi = self.addsub.add(int(u), reduced, self.modulus)
        lo = self.addsub.sub(int(u), reduced, self.modulus)
        return hi, lo
