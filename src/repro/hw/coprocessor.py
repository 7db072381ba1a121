"""The instruction-set coprocessor (paper Fig. 10).

Executes :class:`~repro.hw.isa.Program` streams over the RPAU array, the
lift/scale core clusters, and the memory file. Every instruction does two
things: compute the bit-exact result (the same numbers the Verilog
produces) and charge its cycle cost (schedule-derived unit cycles plus the
calibrated software dispatch gap).

A full ``mult()`` on this class is the executable form of the paper's
Table I "Mult in HW" row; ``report.table()`` prints the per-instruction
breakdown next to the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import HardwareModelError, IsaError
from ..fv.ciphertext import Ciphertext
from ..fv.keys import DigitRelinKey, GroupedRelinKey
from ..params import ParameterSet
from ..poly.rns_poly import RnsPoly
from ..rns.basis import basis_for, lift_context, scale_context
from ..rns.decompose import decompose_poly_signed
from .compiler import compile_add, compile_mult, compile_rotation
from .config import HardwareConfig
from .dma import DmaModel
from .isa import Instruction, Opcode, Program
from .lift_unit import HpsLiftUnit, TraditionalLiftUnit
from .memory_file import MemoryFile
from .rpau import Rpau, rpau_prime_assignment
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

    def table(self) -> str:
        lines = [f"{'instruction':<18}{'calls':>6}{'FPGA cyc/call':>15}"
                 f"{'Arm cyc/call':>14}"]
        for op, stat in self.op_stats.items():
            per_call = stat.cycles_per_call
            lines.append(
                f"{op.value:<18}{stat.calls:>6}{per_call:>15.0f}"
                f"{self.config.fpga_to_arm_cycles(round(per_call)):>14}"
            )
        lines.append(
            f"total: {self.total_cycles} FPGA cycles = "
            f"{self.arm_cycles} Arm cycles = {self.seconds * 1e3:.3f} ms"
        )
        return "\n".join(lines)


class Coprocessor:
    """One coprocessor instance (the FPGA holds two, paper Fig. 11)."""

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None,
                 strict: bool = False) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        self.strict = strict
        self.q_basis = basis_for(params.q_primes)
        self.full_primes = params.q_primes + params.p_primes
        self.full_col = np.array(self.full_primes, dtype=np.int64)[:, None]
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
        self.num_rpaus = min(self.config.num_rpaus,
                             max(params.k_q, params.k_p))
        assignment = rpau_prime_assignment(params.k_q, params.k_total,
                                           self.num_rpaus)
        self.rpaus = [
            Rpau(r, params.n,
                 tuple(self.full_primes[i] for i in indices), self.config,
                 strict=strict)
            for r, indices in enumerate(assignment)
        ]
        self._row_to_rpau = {}
        for r, indices in enumerate(assignment):
            for idx in indices:
                self._row_to_rpau[idx] = r
        self.memory = MemoryFile(params, self.config)
        self.dma = DmaModel(self.config)
        self.registers: dict[str, np.ndarray] = {}
        self._relin_key = None
        self._cycle_model: dict[Opcode, int] | None = None

    # -- register file ------------------------------------------------------------

    def _new_reg(self) -> np.ndarray:
        return np.zeros((self.params.k_total, self.params.n), dtype=np.int64)

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
            key=None, outputs: tuple[str, ...] = ("out0", "out1")
            ) -> tuple[Ciphertext, MultReport]:
        """One high-level operation: load the operand registers, preload
        the key when it is resident on chip, execute, read the result."""
        self.registers.clear()
        for name, q_rows in operands.items():
            self.load_polynomial(name, q_rows)
        if key is not None and self.config.relin_key_on_chip:
            for component in range(len(key.pairs)):
                self._load_key_pair(key, component)
        report = self.execute(program, relin_key=key)
        k_q = self.params.k_q
        parts = tuple(RnsPoly(self.q_basis, self._reg(name)[:k_q].copy())
                      for name in outputs)
        return Ciphertext(parts, self.params), report

    # -- the price list ----------------------------------------------------------------

    def instruction_cycle_model(self) -> dict[Opcode, int]:
        """FPGA cycles per call of every opcode whose cost depends only
        on this configuration (Table II's seven rows, CSUB and GALOIS)."""
        if self._cycle_model is None:
            rpau = self.rpaus[0]
            unit = rpau.ntt_unit(rpau.primes[0])
            dispatch = self.config.dispatch_overhead
            # Rearranges stream back-to-back with their transform, so no
            # dispatch gap (the paper's 25,006-Arm-cycle row shows the
            # same: it is n + epsilon). tau_g is the rearrange datapath
            # with a Galois address generator: one coefficient per cycle.
            self._cycle_model = {
                Opcode.NTT: unit.transform_cycles() + dispatch,
                Opcode.INTT: (unit.transform_cycles()
                              + unit.scale_pass_cycles() + dispatch),
                Opcode.CMUL: rpau.cmul_cycles() + dispatch,
                Opcode.CADD: rpau.cadd_cycles() + dispatch,
                Opcode.CSUB: rpau.cadd_cycles() + dispatch,
                Opcode.REARRANGE: rpau.rearrange_cycles(),
                Opcode.GALOIS: rpau.rearrange_cycles(),
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
            if "source_row" in ins.meta:
                issue //= 2
            return issue + self.config.stage_sync_overhead
        if ins.op is Opcode.LOAD_RLK:
            # One key pair: two polynomial bursts from DDR.
            seconds = 2 * (self.dma.transfer_seconds(self.params.poly_bytes)
                           + self.dma.arm_setup_seconds)
            return round(seconds * self.config.fpga_clock_hz)
        return self.instruction_cycle_model()[ins.op]

    # -- instruction datapaths (bit-exact results; cycles are charged above) -----------

    def _rpau_for_row(self, row: int) -> Rpau:
        return self.rpaus[self._row_to_rpau[row]]

    def _transform(self, ins: Instruction, op: str) -> None:
        """NTT / INTT of a row batch. The NTT unit counts its schedule's
        cycles as it runs (stage by stage; cycle by cycle when strict):
        that count must be the closed form the instruction is charged."""
        reg = self._reg(ins.srcs[0])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        charged = (self.instruction_cycles(ins)
                   - self.config.dispatch_overhead)
        for row in ins.rows:
            prime = self.full_primes[row]
            dst[row], stepped = getattr(self._rpau_for_row(row), op)(
                prime, reg[row])
            if stepped != charged:
                raise HardwareModelError(
                    f"{ins.op.name} row {row}: the executed schedule took "
                    f"{stepped} cycles, the cycle model charges {charged}"
                )

    def _coeffwise(self, ins: Instruction, op: str) -> None:
        a = self._reg(ins.srcs[0])
        b = self._reg(ins.srcs[1])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        for row in ins.rows:
            prime = self.full_primes[row]
            dst[row], _ = getattr(self._rpau_for_row(row), op)(
                prime, a[row], b[row])

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
        src = self._reg(ins.srcs[0])
        dst = self.registers.setdefault(ins.dst, self._new_reg())
        if "source_row" in ins.meta:
            # HPS: broadcast one residue row across the q basis.
            row = ins.meta["source_row"]
            dst[: self.params.k_q] = src[row][None, :] % self.q_col
        elif "group" in ins.meta:
            # Grouped-RNS digit: exact CRT over one prime group.
            from ..rns.decompose import grouped_rns_digits

            digits = grouped_rns_digits(
                self.q_basis, src[: self.params.k_q], ins.meta["group_size"]
            )
            dst[: self.params.k_q] = digits[ins.meta["group"]]
        else:
            # Traditional: extract one signed base-w digit from the CRT
            # coefficients (the Fig. 8 datapath has them reconstructed).
            index = ins.meta["digit_index"]
            base_bits = ins.meta["base_bits"]
            count = index + 1
            poly = RnsPoly(self.q_basis, src[: self.params.k_q])
            coeffs = poly.to_int_coeffs()
            digits = decompose_poly_signed(
                coeffs, self.params.q, 1 << base_bits,
                max(count, -(-self.params.q.bit_length() // base_bits)),
            )
            # Digits can exceed 64 bits (e.g. the 90-bit digits of the
            # paper's slow design); reduce with exact integer arithmetic.
            dst[: self.params.k_q] = np.array(
                [[d % p for d in digits[index]]
                 for p in self.params.q_primes],
                dtype=np.int64,
            )

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
    #: discarded coprocessor's transform tables alive until the next
    #: cyclic collection.
    _DATAPATHS = {
        Opcode.NTT: partial(_transform, op="ntt"),
        Opcode.INTT: partial(_transform, op="intt"),
        Opcode.CMUL: partial(_coeffwise, op="cmul"),
        Opcode.CADD: partial(_coeffwise, op="cadd"),
        Opcode.CSUB: partial(_coeffwise, op="csub"),
        Opcode.REARRANGE: _exec_rearrange,
        Opcode.LIFT: _exec_lift,
        Opcode.SCALE: _exec_scale,
        Opcode.DIGIT: _exec_digit,
        Opcode.LOAD_RLK: _exec_load_rlk,
        Opcode.GALOIS: _exec_galois,
    }

    # -- high-level operations ---------------------------------------------------------

    def mult(self, ct_a: Ciphertext, ct_b: Ciphertext,
             relin_key) -> tuple[Ciphertext, MultReport]:
        """Full FV.Mult on the coprocessor (Table I row 1).

        Accepts any of the three relinearisation key flavours; the
        compiled program follows the key's digit style.
        """
        if isinstance(relin_key, GroupedRelinKey):
            style = "grouped"
        elif isinstance(relin_key, DigitRelinKey):
            style = "digit"
        else:
            style = "rns"
        program = compile_mult(self.params, self.config,
                               relin_components=relin_key.num_components,
                               relin_style=style)
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
