"""The instruction-set coprocessor (paper Fig. 10).

Executes :class:`~repro.hw.isa.Program` streams over a register file of
residue-word matrices. Every instruction does two things: compute its
bit-exact result and charge its cycle cost (schedule-derived unit cycles
plus the calibrated software dispatch gap). The values come from the
engine's own kernels — NTT / INTT on the q or p basis transformer of the
row batch, CMUL / CADD / CSUB as the engine's ``mul_mod`` / ``add_mod``
/ ``sub_mod`` over the batch, Lift / Scale through :mod:`repro.rns` — so
the model has one arithmetic, the library's. The cycle charges are
closed forms; the stepped units
(:meth:`~repro.hw.ntt_unit.DualCoreNttUnit.run_strict`, the block
pipeline) are the oracle the tests hold those closed forms to.

A full ``mult()`` on this class is the executable form of the paper's
Table I "Mult in HW" row; its report's ``op_stats`` hold the
per-instruction breakdown that ``examples/hw_simulation_demo.py`` prints
next to the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import HardwareModelError, IsaError
from ..fv.ciphertext import Ciphertext
from ..fv.keys import RelinKey
from ..nttmath.batch import RESIDUE, add_mod, basis_transformer, mul_mod, sub_mod
from ..params import ParameterSet
from ..poly.rns_poly import RnsPoly
from ..rns.basis import basis_for, lift_context, scale_context
from .compiler import compile_add, compile_mult, compile_rotation
from .config import DISPATCH_OVERHEAD, STAGE_SYNC_OVERHEAD, HardwareConfig
from .datapath import ADDSUB_STAGES
from .dma import ARM_SETUP_SECONDS, transfer_seconds
from .isa import Instruction, Opcode, Program
from .lift_unit import HpsLiftUnit, TraditionalLiftUnit
from .memory_file import MemoryFile
from .ntt_unit import DualCoreNttUnit
from .scale_unit import HpsScaleUnit, TraditionalScaleUnit


@dataclass
class InstructionStat:
    """Aggregated cost of one opcode within a program run."""

    calls: int = 0
    cycles: int = 0

    @property
    def cycles_per_call(self) -> float:
        return self.cycles / self.calls if self.calls else 0.0


@dataclass
class MultReport:
    """Cycle breakdown of one high-level operation (Tables I and II)."""

    config: HardwareConfig
    op_stats: dict[Opcode, InstructionStat] = field(default_factory=dict)
    transfer_cycles: int = 0

    @property
    def compute_cycles(self) -> int:
        return sum(
            stat.cycles for op, stat in self.op_stats.items()
            if op is not Opcode.LOAD_RLK
        )

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.transfer_cycles

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.config.fpga_clock_hz

    @property
    def arm_cycles(self) -> int:
        """The measurement convention of the paper's Table I."""
        return self.config.fpga_to_arm_cycles(self.total_cycles)

    def charge(self, op: Opcode, cycles: int, is_transfer: bool = False) -> None:
        stat = self.op_stats.setdefault(op, InstructionStat())
        stat.calls += 1
        stat.cycles += cycles
        if is_transfer:
            self.transfer_cycles += cycles


class Coprocessor:
    """One coprocessor instance (the FPGA holds two, paper Fig. 11)."""

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        self.q_basis = basis_for(params.q_primes)
        self.full_col = basis_for(params.q_primes + params.p_primes).primes_col
        self.q_col = self.q_basis.primes_col
        # Lift extends q -> p (the unit computes only the new residues).
        self._lift_ctx = lift_context(params.q_primes, params.p_primes)
        self._scale_ctx = scale_context(params.q_primes, params.p_primes,
                                        params.t)
        if self.config.use_hps:
            self.lift_unit = HpsLiftUnit(self._lift_ctx, self.config)
            self.scale_unit = HpsScaleUnit(self._scale_ctx, self.config)
        else:
            self.lift_unit = TraditionalLiftUnit(self._lift_ctx, self.config)
            self.scale_unit = TraditionalScaleUnit(self._scale_ctx,
                                                   self.config)
        self.memory = MemoryFile(params, self.config)
        self.registers: dict[str, np.ndarray] = {}
        self._relin_key = None
        self._cycle_model: dict[Opcode, int] | None = None

    # -- register file ------------------------------------------------------------

    def _new_reg(self) -> np.ndarray:
        return np.zeros((self.params.k_total, self.params.n), dtype=RESIDUE)

    def _reg(self, name: str) -> np.ndarray:
        if name not in self.registers:
            raise IsaError(f"register {name!r} not initialised")
        return self.registers[name]

    def load_polynomial(self, name: str, q_rows: np.ndarray) -> None:
        reg = self._new_reg()
        reg[: self.params.k_q] = q_rows
        self.registers[name] = reg

    # -- program execution -----------------------------------------------------------

    def execute(self, program: Program, relin_key=None) -> MultReport:
        """Run `program` over the register file; `relin_key` is whatever
        key (relinearisation flavour or Galois) its LOAD_RLKs stream."""
        self._relin_key = relin_key
        report = MultReport(config=self.config)
        for instruction in program.instructions:
            handler = self._DATAPATHS.get(instruction.op)
            if handler is None:
                raise IsaError(
                    f"program {program.name!r}: the coprocessor has no "
                    f"datapath for opcode {instruction.op.name}"
                )
            handler(self, instruction)
            report.charge(instruction.op,
                          self.instruction_cycles(instruction),
                          is_transfer=instruction.op is Opcode.LOAD_RLK)
        return report

    def run(self, program: Program, operands: dict[str, np.ndarray | int],
            key=None) -> tuple[Ciphertext, MultReport]:
        """One high-level operation: load the operand registers, preload
        the key when it is resident on chip, execute, read the two-part
        result from ``out0`` / ``out1``."""
        self.registers.clear()
        for name, q_rows in operands.items():
            self.load_polynomial(name, q_rows)
        if key is not None and self.config.relin_key_on_chip:
            for component in range(len(key.pairs)):
                self._load_key_pair(key, component)
        report = self.execute(program, relin_key=key)
        k_q = self.params.k_q
        parts = tuple(RnsPoly(self.q_basis, self._reg(name)[:k_q])
                      for name in ("out0", "out1"))
        return Ciphertext(parts, self.params), report

    # -- the price list ----------------------------------------------------------------

    def instruction_cycle_model(self) -> dict[Opcode, int]:
        """FPGA cycles per call of every opcode whose cost depends only
        on this configuration (Table II's seven rows, CSUB and GALOIS)."""
        if self._cycle_model is None:
            n, sync = self.params.n, STAGE_SYNC_OVERHEAD
            # One RPAU channel stands for all: the butterfly depth is the
            # same for every 30-bit prime.
            unit = DualCoreNttUnit(n, self.params.q_primes[0], self.config)
            depth = unit.butterflies[0].pipeline_depth
            # Two coefficients per memory word and two butterfly cores'
            # multipliers / adders: one word per cycle, n/2 issue cycles
            # per residue polynomial. A layout conversion (bit-reversal /
            # pairing) moves one coefficient per cycle through the single
            # permutation write port.
            cmul = n // 2 + depth + sync
            cadd = n // 2 + ADDSUB_STAGES + sync
            rearrange = n + depth + sync
            dispatch = DISPATCH_OVERHEAD
            # Rearranges stream back-to-back with their transform, so no
            # dispatch gap (the paper's 25,006-Arm-cycle row shows the
            # same: it is n + epsilon). tau_g is the rearrange datapath
            # with a Galois address generator: one coefficient per cycle.
            self._cycle_model = {
                Opcode.NTT: unit.transform_cycles() + dispatch,
                Opcode.INTT: (unit.transform_cycles()
                              + unit.scale_pass_cycles() + dispatch),
                Opcode.CMUL: cmul + dispatch,
                Opcode.CADD: cadd + dispatch,
                Opcode.CSUB: cadd + dispatch,
                Opcode.REARRANGE: rearrange,
                Opcode.GALOIS: rearrange,
                Opcode.LIFT: self.lift_unit.cycles(self.params.n) + dispatch,
                Opcode.SCALE: (self.scale_unit.cycles(self.params.n)
                               + dispatch),
            }
        return self._cycle_model

    def instruction_cycles(self, ins: Instruction) -> int:
        """FPGA cycles one instruction is charged: what :meth:`execute`
        books and what the cost model sums over a compiled program."""
        if ins.op is Opcode.DIGIT:
            # The HPS digit broadcasts one residue row (pure data
            # movement, two coefficients per word); the grouped-RNS and
            # signed base-w digits come out of a one-coefficient-per-
            # cycle datapath (the lift unit's small CRT, Fig. 8's
            # reconstructed coefficients).
            issue = self.params.n
            if ins.meta["decomposition"].raw_rows:
                issue //= 2
            return issue + STAGE_SYNC_OVERHEAD
        if ins.op is Opcode.LOAD_RLK:
            # One key pair: two polynomial bursts from DDR.
            seconds = 2 * (transfer_seconds(self.params.poly_bytes)
                           + ARM_SETUP_SECONDS)
            return round(seconds * self.config.fpga_clock_hz)
        return self.instruction_cycle_model()[ins.op]

    # -- instruction datapaths (bit-exact results; cycles are charged above) -----------

    @staticmethod
    def _row_batch(ins: Instruction) -> slice:
        """The residue rows of an RPAU batch: q rows, p rows or all rows,
        always one contiguous range."""
        rows = ins.rows
        if not rows or rows != tuple(range(rows[0], rows[-1] + 1)):
            raise IsaError(
                f"{ins.op.name} rows {list(rows)}: a row batch must be a "
                f"contiguous range of residue rows"
            )
        return slice(rows[0], rows[-1] + 1)

    def _transform(self, ins: Instruction, inverse: bool) -> None:
        """NTT / INTT of a row batch on the engine's transformer of its
        own basis, q or p, as the paper's RPAUs read one twiddle ROM per
        prime: a compiled batch is the whole q or p basis, one call; any
        other range runs a channel view of each basis it covers, never a
        second table set. The stepped Fig. 3 unit computes the same
        values in the cycles the instruction is charged
        (tests/test_hw_ntt_unit.py)."""
        rows = self._row_batch(ins)
        src = self._reg(ins.srcs[0])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        k_q = self.params.k_q
        for offset, primes in ((0, self.params.q_primes),
                               (k_q, self.params.p_primes)):
            lo = max(rows.start, offset)
            hi = min(rows.stop, offset + len(primes))
            if lo >= hi:
                continue
            view = basis_transformer(primes, self.params.n).subset(
                lo - offset, hi - offset)
            dst[lo:hi] = (view.inverse if inverse else view.forward)(src[lo:hi])

    def _coeffwise(self, ins: Instruction, op) -> None:
        rows = self._row_batch(ins)
        a = self._reg(ins.srcs[0])[rows]
        b = self._reg(ins.srcs[1])[rows]
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        dst[rows] = op(a, b, self.full_col[rows])

    def _exec_rearrange(self, ins: Instruction) -> None:
        # Functional no-op: the NTT unit model folds the layout
        # permutation into its load/unload steps; the instruction carries
        # the cycle cost of that data movement.
        pass

    def _exec_lift(self, ins: Instruction) -> None:
        reg = self._reg(ins.srcs[0])
        q_rows = reg[: self.params.k_q]
        p_rows, _ = self.lift_unit.run(q_rows)
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        dst[: self.params.k_q] = q_rows
        dst[self.params.k_q:] = p_rows

    def _exec_scale(self, ins: Instruction) -> None:
        reg = self._reg(ins.srcs[0])
        scaled, _ = self.scale_unit.run(reg[: self.params.k_total])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        dst[: self.params.k_q] = scaled

    def _exec_digit(self, ins: Instruction) -> None:
        # The raw residue row (HPS), a group's exact CRT residue, or one
        # signed base-w digit of the CRT coefficients the Fig. 8
        # datapath has reconstructed: whichever the key's WordDecomp is.
        src = self._reg(ins.srcs[0])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        dst[: self.params.k_q] = ins.meta["decomposition"].digit_rows(
            self.q_basis, src[: self.params.k_q], ins.meta["digit"])

    def _exec_galois(self, ins: Instruction) -> None:
        from ..fv.galois import apply_galois_rows

        src = self._reg(ins.srcs[0])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        k_q = self.params.k_q
        dst[:k_q] = apply_galois_rows(
            src[:k_q], self.q_col, self.params.n, ins.meta["element"]
        )

    def _load_key_pair(self, key, component: int) -> None:
        for part, rows in enumerate(key.pairs[component]):
            reg = self.registers.setdefault(f"rlk{part}_{component}",
                                            self._new_reg())
            reg[: self.params.k_q] = rows

    def _exec_load_rlk(self, ins: Instruction) -> None:
        if self._relin_key is None:
            raise HardwareModelError(
                "program streams a relinearisation key but none was supplied"
            )
        self._load_key_pair(self._relin_key, ins.meta["component"])

    #: Opcode -> datapath, as plain functions: a table of bound methods
    #: on the instance would be a reference cycle that keeps every
    #: discarded coprocessor (its register file and unit contexts) alive
    #: until the next cyclic collection.
    _DATAPATHS = {
        Opcode.NTT: partial(_transform, inverse=False),
        Opcode.INTT: partial(_transform, inverse=True),
        Opcode.CMUL: partial(_coeffwise, op=mul_mod),
        Opcode.CADD: partial(_coeffwise, op=add_mod),
        Opcode.CSUB: partial(_coeffwise, op=sub_mod),
        Opcode.REARRANGE: _exec_rearrange,
        Opcode.LIFT: _exec_lift,
        Opcode.SCALE: _exec_scale,
        Opcode.DIGIT: _exec_digit,
        Opcode.LOAD_RLK: _exec_load_rlk,
        Opcode.GALOIS: _exec_galois,
    }

    # -- high-level operations ---------------------------------------------------------

    def mult(self, ct_a: Ciphertext, ct_b: Ciphertext,
             relin_key: RelinKey) -> tuple[Ciphertext, MultReport]:
        """Full FV.Mult on the coprocessor (Table I row 1); the compiled
        program's digits follow the key's decomposition."""
        program = compile_mult(self.params, self.config,
                               relin_key.decomposition)
        return self.run(program, _operands(a=ct_a, b=ct_b), relin_key)

    def add(self, ct_a: Ciphertext,
            ct_b: Ciphertext) -> tuple[Ciphertext, MultReport]:
        """FV.Add on the coprocessor (Table I row 2)."""
        return self.run(compile_add(self.params),
                        _operands(a=ct_a, b=ct_b))

    def rotate(self, ct: Ciphertext, galois_key) -> tuple[Ciphertext,
                                                          MultReport]:
        """Homomorphic rotation on the coprocessor (extension feature).

        Bit-identical to :meth:`repro.fv.galois.GaloisEngine.apply`; the
        report shows what a rotation costs on the paper's datapath.
        """
        program = compile_rotation(self.params, self.config,
                                   galois_key.element)
        return self.run(program, {**_operands(a=ct), "zero": 0},
                        galois_key)


def _operands(**ciphertexts: Ciphertext) -> dict[str, np.ndarray | int]:
    """Register image of named ciphertexts: ``a`` -> ``a0``, ``a1``, ...

    The model's programs load coefficient registers, so the DMA boundary
    takes the coefficient rows of an evaluation-domain part (one inverse
    transform per part) and a coefficient part as it is.
    """
    return {f"{name}{i}": part.to_coeff().residues
            for name, ct in ciphertexts.items()
            for i, part in enumerate(ct.parts)}
