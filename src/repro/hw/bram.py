"""BRAM models: paired-coefficient polynomial memory (paper Sec. V-A3).

A residue polynomial of n coefficients is stored as n/2 virtual words of
60 bits, two 30-bit coefficients per word. The words are split across two
"brown blocks" (Fig. 3): the lower block serves addresses [0, W/2) and
the upper block [W/2, W), where W = n/2. Each block is built from two
address-aligned BRAM36K primitives (1024 x 36 bits each), giving the
paper's four BRAM36K per residue polynomial at n = 4096.

Each block exposes one read port and one write port per cycle (the paper
dedicates one BRAM port to reads and the other to writes during the NTT).
The strict executor passes cycle stamps; oversubscribing a port raises
:class:`~repro.errors.MemoryConflictError`, turning Fig. 3's conflict-
freedom claim into an executable property.
"""

from __future__ import annotations

import numpy as np

from ..errors import HardwareModelError, MemoryConflictError
from ..nttmath.batch import RESIDUE
from ..utils import is_power_of_two

BRAM36K_WORDS = 1024
BRAM36K_WIDTH = 36
COEFF_BITS = 30
WORD_COEFFS = 2


class BramBlock:
    """One Fig.-3 block: `depth` words of two coefficients, 1R + 1W per cycle."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.data = np.zeros((depth, WORD_COEFFS), dtype=RESIDUE)
        self._reads_at: dict[int, int] = {}
        self._writes_at: dict[int, int] = {}

    def read(self, addr: int, cycle: int | None = None) -> tuple[int, int]:
        self._check_addr(addr)
        if cycle is not None:
            count = self._reads_at.get(cycle, 0)
            if count >= 1:
                raise MemoryConflictError(
                    f"second read on block read port in cycle {cycle}"
                )
            self._reads_at[cycle] = count + 1
        lo, hi = self.data[addr]
        return int(lo), int(hi)

    def write(self, addr: int, pair: tuple[int, int],
              cycle: int | None = None) -> None:
        self._check_addr(addr)
        if cycle is not None:
            count = self._writes_at.get(cycle, 0)
            if count >= 1:
                raise MemoryConflictError(
                    f"second write on block write port in cycle {cycle}"
                )
            self._writes_at[cycle] = count + 1
        self.data[addr] = (int(pair[0]), int(pair[1]))

    def reset_ports(self) -> None:
        """Forget port history (called between instructions)."""
        self._reads_at.clear()
        self._writes_at.clear()

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.depth:
            raise HardwareModelError(
                f"address {addr} outside block depth {self.depth}"
            )


class PairedPolyMemory:
    """The two-block paired-word memory holding one residue polynomial."""

    def __init__(self, n: int) -> None:
        if not is_power_of_two(n) or n < 8:
            raise HardwareModelError(
                "paired memory needs a power-of-two degree of at least 8"
            )
        self.n = n
        self.words = n // 2
        self.block_depth = self.words // 2
        self.lower = BramBlock(self.block_depth)
        self.upper = BramBlock(self.block_depth)

    def block_of(self, addr: int) -> tuple[BramBlock, int]:
        """Map a virtual word address to (block, local address)."""
        if not 0 <= addr < self.words:
            raise HardwareModelError(
                f"word address {addr} outside memory of {self.words} words"
            )
        if addr < self.block_depth:
            return self.lower, addr
        return self.upper, addr - self.block_depth

    def read_word(self, addr: int, cycle: int | None = None) -> tuple[int, int]:
        block, local = self.block_of(addr)
        return block.read(local, cycle)

    def write_word(self, addr: int, pair: tuple[int, int],
                   cycle: int | None = None) -> None:
        block, local = self.block_of(addr)
        block.write(local, pair, cycle)

    def reset_ports(self) -> None:
        self.lower.reset_ports()
        self.upper.reset_ports()

    # -- bulk access for the fast executor ------------------------------------------

    def load_pairs(self, pairs: np.ndarray) -> None:
        """Fill the memory from a (words x 2) array in one model step."""
        if pairs.shape != (self.words, WORD_COEFFS):
            raise HardwareModelError(
                f"expected ({self.words} x 2) pairs, got {pairs.shape}"
            )
        self.lower.data[:] = pairs[: self.block_depth]
        self.upper.data[:] = pairs[self.block_depth:]

    def dump_pairs(self) -> np.ndarray:
        return np.concatenate([self.lower.data, self.upper.data], axis=0)
