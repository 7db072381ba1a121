"""Sliding-window modular reduction circuit (paper Sec. V-A4, Fig. 4).

The paper avoids Barrett reduction (several extra multiplications) with a
table-driven method: to reduce a 60-bit product modulo a 30-bit prime, a
"reduction table" stores ``w * 2^30 mod q_i`` for every value ``w`` of the
most-significant window (6 bits in the paper). Each step replaces the top
window of the operand by its tabulated 30-bit equivalent, shrinking the
operand by ``window`` bits; the steps are fully unrolled and pipelined in
the RTL. A final conditional subtraction of q or 2q produces the result.

Both a bit-exact functional model and the structural properties (table
size, step count = pipeline stages) live here.
"""

from __future__ import annotations

import numpy as np

from ..errors import HardwareModelError, ParameterError

RESIDUE_BITS = 30
"""Width of the reduced result (the paper's 30-bit primes)."""

WINDOW_BITS = 6
"""Bits of the operand each step retires (the paper's 6-bit window)."""


class SlidingWindowReducer:
    """Reduction of a 60-bit product modulo one 30-bit prime."""

    def __init__(self, modulus: int) -> None:
        if modulus.bit_length() > RESIDUE_BITS:
            raise ParameterError(
                f"modulus {modulus} wider than the {RESIDUE_BITS}-bit datapath"
            )
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        self.modulus = modulus
        self.input_bits = 2 * RESIDUE_BITS
        # Table of w * 2^RESIDUE_BITS mod q for each window value w. The
        # RTL keeps one such ROM per supported prime of the RPAU.
        self.table = np.array(
            [(w << RESIDUE_BITS) % modulus for w in range(1 << WINDOW_BITS)],
            dtype=np.int64,
        )
        # Number of unrolled steps: each step removes WINDOW_BITS bits
        # above bit RESIDUE_BITS until at most 31 bits remain.
        excess = self.input_bits - (RESIDUE_BITS + 1)
        self.steps = -(-excess // WINDOW_BITS)

    # -- structural properties (consumed by the resource model) -------------------

    @property
    def pipeline_stages(self) -> int:
        """One pipeline stage per unrolled step plus the final correction."""
        return self.steps + 1

    # -- functional model -----------------------------------------------------------

    def reduce(self, value: int) -> int:
        """Scalar bit-exact reduction (mirrors the RTL step by step)."""
        if value < 0 or value.bit_length() > self.input_bits:
            raise HardwareModelError(
                f"operand {value} outside the {self.input_bits}-bit datapath"
            )
        work = value
        for _ in range(self.steps):
            if work.bit_length() <= RESIDUE_BITS + 1:
                # The RTL still burns the stage; the value passes through.
                continue
            shift = work.bit_length() - WINDOW_BITS
            # Keep the window anchored above bit RESIDUE_BITS.
            shift = max(shift, RESIDUE_BITS)
            window = work >> shift
            low = work - (window << shift)
            # window * 2^shift mod q = table[window] * 2^(shift-30) folded in.
            folded = int(self.table[window]) << (shift - RESIDUE_BITS)
            work = low + folded
        # Final correction: the value is now at most ~32 bits; subtract q
        # or 2q (paper: "might require a subtraction of qi or 2qi").
        while work >= self.modulus:
            work -= self.modulus
        return work

