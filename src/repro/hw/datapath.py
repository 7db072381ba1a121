"""Low-level pipelined arithmetic circuits of the butterfly (paper Fig. 4).

These models carry the functional operation and the latency consumed by
the cycle model; the DSP counts below are consumed by the resource model.
All datapaths are fully pipelined: latency is the circuit's fixed
pipeline depth (``MULTIPLIER_STAGES`` / ``ADDSUB_STAGES``), the
initiation interval is one operation per cycle.
"""

from __future__ import annotations

from ..errors import HardwareModelError

#: DSP48E2 slices for a pipelined 30x30 multiplier (2x2 tiling of the
#: 27x18 hardened multiplier).
DSP_PER_30X30 = 4

#: DSP slices for the 30x60 fixed-point reciprocal multiplier of the HPS
#: lift (Fig. 6 Block 3): twice the 30x30 tile count.
DSP_PER_30X60 = 8

#: Operand width of the butterfly's multiplier (the paper's 30-bit primes).
MULTIPLIER_BITS = 30

#: Pipeline depths that let the butterfly reach 200 MHz (paper Sec. V-A4,
#: Fig. 4): the 30x30 DSP multiplier and the modular add/sub.
MULTIPLIER_STAGES = 4
ADDSUB_STAGES = 1


class PipelinedMultiplier:
    """30x30 integer multiplier built from DSP slices."""

    #: Pipeline depth in cycles.
    latency = MULTIPLIER_STAGES

    def multiply(self, a: int, b: int) -> int:
        if max(a.bit_length(), b.bit_length()) > MULTIPLIER_BITS:
            raise HardwareModelError(
                f"operands exceed the {MULTIPLIER_BITS}x{MULTIPLIER_BITS} "
                f"multiplier"
            )
        return a * b


class ModAddSub:
    """Modular adder/subtractor (add then conditional correction)."""

    #: Pipeline depth in cycles.
    latency = ADDSUB_STAGES

    def add(self, a: int, b: int, modulus: int) -> int:
        total = a + b
        return total - modulus if total >= modulus else total

    def sub(self, a: int, b: int, modulus: int) -> int:
        diff = a - b
        return diff + modulus if diff < 0 else diff
