"""On-chip memory file of the coprocessor (paper Fig. 10, the 'M' boxes).

The paper sizes the on-chip memory so that a full FV.Mult runs without
touching DDR except for the relinearisation keys. This module defines the
concrete memory map used by the compiler, tracks allocations, and counts
BRAM36K primitives for the resource model:

* every *residue polynomial row* occupies n/2 paired 60-bit words =
  4 BRAM36K at n = 4096 (see :mod:`repro.hw.bram`);
* twiddle ROMs store the forward stage tables (the inverse tables are the
  same table read in reverse index order) plus the merged psi post-scale
  table per prime;
* the lift/scale constant ROMs are counted by their owning units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..params import ParameterSet
from .bram import BRAM36K_WIDTH, BRAM36K_WORDS
from .config import HardwareConfig

COEFF_BITS = 30


@dataclass
class MemoryRegion:
    """A named region holding a number of residue polynomial rows."""

    name: str
    rows: int
    purpose: str

    def bram36k(self, n: int) -> int:
        # Two blocks per residue row, each two aligned BRAM36K per 1024
        # words of depth (the paired-word geometry of repro.hw.bram).
        depth_per_block = n // 4
        brams_per_block = 2 * max(1, -(-depth_per_block // BRAM36K_WORDS))
        return self.rows * 2 * brams_per_block


@dataclass
class MemoryFile:
    """The coprocessor's polynomial memory map.

    The regions below mirror the working set of the Fig. 2 dataflow with
    the aliasing a BRAM-constrained design needs (the paper's Table IV
    shows the design is memory-bound at 89% BRAM utilisation):

    * ``operands``: the two input ciphertexts' q-basis rows; after the
      forward NTTs these same rows hold the transformed operands.
    * ``lifted``: the extension (p-basis) rows produced by Lift.
    * ``accumulators``: full-basis rows for c~0/c~1/c~2 beyond what can
      alias onto the operand rows, plus the scaled q-basis results.
    * ``relin``: the streaming buffer for one relinearisation key
      component (double-buffering is what `rlk_buffers=2` would model).
    """

    params: ParameterSet
    config: HardwareConfig
    regions: list[MemoryRegion] = field(default_factory=list)

    def __post_init__(self) -> None:
        k_q, k_p, k_total = (self.params.k_q, self.params.k_p,
                             self.params.k_total)
        self.regions = [
            MemoryRegion("operands", 4 * k_q,
                         "two input ciphertexts (q rows, reused post-NTT)"),
            MemoryRegion("lifted", 4 * k_p,
                         "extension rows of the four lifted polynomials"),
            MemoryRegion("accumulators", k_total + k_q,
                         "tensor accumulator + scaled result staging"),
            MemoryRegion("relin", k_q,
                         "relinearisation key streaming buffer"),
        ]

    # -- BRAM accounting ------------------------------------------------------------

    def poly_bram36k(self) -> int:
        return sum(region.bram36k(self.params.n) for region in self.regions)

    def twiddle_rom_bram36k(self) -> int:
        """Per prime: forward stage twiddles (n words) + psi post-scale
        table (n words), 30 bits each."""
        bits_per_prime = 2 * self.params.n * COEFF_BITS
        per_prime = -(-bits_per_prime // (BRAM36K_WORDS * BRAM36K_WIDTH))
        return self.params.k_total * per_prime

    def total_bram36k(self) -> int:
        return self.poly_bram36k() + self.twiddle_rom_bram36k()

