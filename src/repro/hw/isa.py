"""Instruction set of the coprocessor (paper Table II).

The paper's coprocessor is an instruction-set architecture: the Arm
dispatches one instruction at a time, each operating on a *batch* of
residue polynomial rows spread over the RPAUs (the six q rows in one
batch, the full basis in two). The opcodes below are exactly the rows of
the paper's Table II plus the key-streaming step its Mult timing folds in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import IsaError


class Opcode(Enum):
    """Operations of the paper's Table II (+ relin key streaming and the
    Galois permutation extension — the latter runs on the memory
    rearrange datapath, no new arithmetic)."""

    NTT = "ntt"
    INTT = "intt"
    CMUL = "coeff_mul"
    CADD = "coeff_add"
    CSUB = "coeff_sub"
    CMUL_SCALAR = "coeff_mul_scalar"
    REARRANGE = "memory_rearrange"
    LIFT = "lift_q_to_Q"
    SCALE = "scale_Q_to_q"
    DIGIT = "digit_broadcast"
    LOAD_RLK = "load_relin_component"
    GALOIS = "galois_permute"


@dataclass(frozen=True)
class Instruction:
    """One coprocessor instruction.

    ``dst`` and ``srcs`` name polynomial registers in the memory file;
    ``rows`` selects the residue rows (batch) the instruction touches.
    ``meta`` carries opcode-specific extras (scalar value, key component
    index, ...).
    """

    op: Opcode
    dst: str | None = None
    srcs: tuple[str, ...] = ()
    rows: tuple[int, ...] = ()
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self) -> None:
        needs_dst = self.op not in (Opcode.LOAD_RLK, Opcode.REARRANGE)
        if needs_dst and self.dst is None:
            raise IsaError(f"{self.op.name} requires a destination register")

    def describe(self) -> str:
        src = ", ".join(self.srcs)
        rows = f" rows={list(self.rows)}" if self.rows else ""
        return f"{self.op.name:12s} {self.dst or '-':12s} <- {src}{rows}"


@dataclass
class Program:
    """An instruction sequence with human-readable provenance."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    def emit(self, op: Opcode, dst: str | None = None,
             srcs: tuple[str, ...] = (), rows: tuple[int, ...] = (),
             **meta) -> Instruction:
        instruction = Instruction(op=op, dst=dst, srcs=srcs, rows=rows,
                                  meta=meta)
        self.instructions.append(instruction)
        return instruction

    def opcode_histogram(self) -> dict[Opcode, int]:
        counts: dict[Opcode, int] = {}
        for instruction in self.instructions:
            counts[instruction.op] = counts.get(instruction.op, 0) + 1
        return counts

    def listing(self) -> str:
        return "\n".join(
            f"{idx:4d}: {ins.describe()}"
            for idx, ins in enumerate(self.instructions)
        )

    def __len__(self) -> int:
        return len(self.instructions)
