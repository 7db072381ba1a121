"""The cloud server's price list: 2 coprocessors + 3 Arm cores (Fig. 11).

The paper reserves one Arm application core per coprocessor and a third
core for networking and DDR/DMA arbitration (Xilinx mutex IP prevents
simultaneous DMA requests). :class:`CostModel` prices that system at the
job level: each homomorphic request pays its ciphertext transfers and
its coprocessor compute time, and the coprocessors run in parallel —
the paper's "two Mult operations take roughly the same time as one" and
its 400 Mult/s headline.

Scheduling lives in :class:`repro.serve.ServingRuntime`, the one
simulator of a board; a cluster is N runtimes behind a router
(:mod:`repro.cluster`).
"""

from __future__ import annotations

from ..hw import dma
from ..hw.compiler import (
    compile_add,
    compile_mul_plain,
    compile_mult,
    compile_mult_raw,
    compile_relin,
    compile_rotation,
)
from ..hw.config import HardwareConfig
from ..hw.coprocessor import Coprocessor
from ..hw.isa import Program
from ..params import ParameterSet
from .arm import add_in_sw_seconds
from .workloads import Job, JobKind


#: Compiler entry of each job kind, as ``(params, config) -> Program``.
#: A rotation's census does not depend on its Galois element.
_COMPILERS = {
    JobKind.MULT: compile_mult,
    JobKind.ADD: lambda params, config: compile_add(params),
    JobKind.ROTATE: lambda params, config: compile_rotation(params, config, 3),
    JobKind.MUL_PLAIN: lambda params, config: compile_mul_plain(params),
    JobKind.MULT_RAW: compile_mult_raw,
    JobKind.RELIN: compile_relin,
}


class CostModel:
    """Per-job service cost of the Fig. 11 server (transfers + compute).

    A modelled operation is the program :mod:`repro.hw.compiler` emits
    for it and its compute time is the sum of what the coprocessor
    charges for each instruction (key streaming included), so a priced
    job costs exactly what executing it reports. Per-kind compute times
    and per-shape job prices are cached: repeated pricing (the event
    engine asks at every inject, admission check and dispatch) costs a
    dictionary lookup.
    """

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        # One functional coprocessor is enough to derive the per-op
        # latencies; the scheduler replicates its timing N times.
        self.reference = Coprocessor(params, self.config)
        self._compute_cache: dict[JobKind, float] = {}
        #: ``job_seconds_of`` by job shape: every field it reads.
        self._job_cache: dict[tuple[JobKind, int, int], float] = {}

    # -- transfers ---------------------------------------------------------------------

    def transfer_in_seconds(self) -> float:
        """Sending a job's two operand ciphertexts to the board."""
        return dma.send_ciphertexts_seconds(self.params.poly_bytes)

    def transfer_out_seconds(self) -> float:
        return dma.receive_ciphertext_seconds(self.params.poly_bytes)

    # -- compute -----------------------------------------------------------------------

    def program(self, kind: JobKind) -> Program:
        """The microcode one job of `kind` runs on the coprocessor."""
        return _COMPILERS[kind](self.params, self.config)

    def compute_seconds(self, kind: JobKind) -> float:
        """Coprocessor occupancy of one job, key streaming included."""
        if kind not in self._compute_cache:
            cycles = sum(self.reference.instruction_cycles(instruction)
                         for instruction in self.program(kind).instructions)
            self._compute_cache[kind] = cycles / self.config.fpga_clock_hz
        return self._compute_cache[kind]

    def job_seconds(self, kind: JobKind) -> float:
        """Full coprocessor occupancy of one job: in + compute + out."""
        return (self.transfer_in_seconds() + self.compute_seconds(kind)
                + self.transfer_out_seconds())

    def job_seconds_of(self, job: Job) -> float:
        """Occupancy of one concrete job, honouring its real byte sizes.

        A job of the default Table I shape (4 polynomial bursts in, 2
        out) prices exactly as :meth:`job_seconds`. The price depends on
        ``(kind, polys_in, polys_out)`` only, and is memoised by it.
        """
        shape = (job.kind, job.polys_in, job.polys_out)
        price = self._job_cache.get(shape)
        if price is None:
            kind, polys_in, polys_out = shape
            poly_bytes = self.params.poly_bytes
            transfer_in = (dma.polynomial_job_seconds(poly_bytes, polys_in)
                           if polys_in else 0.0)
            transfer_out = (dma.polynomial_job_seconds(poly_bytes, polys_out)
                            if polys_out else 0.0)
            price = self._job_cache[shape] = (
                transfer_in + self.compute_seconds(kind) + transfer_out)
        return price

    # -- headline numbers --------------------------------------------------------------

    def mult_throughput_per_second(self) -> float:
        """Saturated Mult/s of one board, every coprocessor busy (the
        paper's 400 Mult/s; a cluster's capacity is the sum)."""
        return self.config.num_coprocessors / self.job_seconds(JobKind.MULT)

    def add_speedup_over_sw(self) -> float:
        """Table I: Add in SW / Add in HW (incl. transfers) ~ 80x."""
        sw = add_in_sw_seconds(self.params)
        return sw / self.job_seconds(JobKind.ADD)
