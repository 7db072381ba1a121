"""The paper's published numbers: one record, and the Sec. VI-E points.

:data:`PAPER_RECORD` states every number the paper publishes for this
design once (Tables I-V, the headline and the prose claims), each with
a zero-argument callable that computes the model's value and a gate on
the relative error. The CLI tables, the examples and the tests read it
instead of restating a paper number (the perf ledger keeps two copies,
which a test holds equal to it). A gate is the model's |error|
rounded up to the next 0.5 % (floor 0.5 %), and the test fails when
a gate is looser than that, so fidelity can only ratchet. The power
figures the model is calibrated to are exact (gate 0). A row whose
paper value is a bound ("> 13x") has no gate; a test of its own checks
it.

:func:`published_points` holds the numbers of the implementations the
paper compares against (Sec. VI-E), and :func:`our_point` the modelled
system's entry, so the CLI and the tests regenerate the section's
claims:

* >13x throughput over FV-NFLlib on the i5;
* 400 Mult/s beats the Tesla V100's ~388 Mult/s at matched parameters;
* faster than Pöppelmann et al.'s Catapult YASHE implementation despite
  their computationally lighter (and since-broken) scheme;
* orders of magnitude less data-transfer-bound than HEPCloud [20].
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from ..hw.config import ARM_CLOCK_HZ, HardwareConfig, slow_coprocessor_config
from ..hw.coprocessor import Coprocessor
from ..hw.dma import transfer_arm_cycles
from ..hw.isa import Opcode
from ..hw.lift_unit import HpsLiftUnit, TraditionalLiftUnit
from ..hw.ntt_unit import DualCoreNttUnit
from ..hw.power import PowerModel
from ..hw.resources import ResourceEstimator, Utilization
from ..hw.scale_unit import TraditionalScaleUnit
from ..hw.scaling import scaling_table
from ..params import hpca19
from ..rns.basis import lift_context, scale_context
from .arm import add_in_sw_cycles
from .baseline import SoftwareBaseline
from .server import CostModel
from .workloads import JobKind


@dataclass(frozen=True)
class ComparisonPoint:
    """One row of the Sec. VI-E comparison."""

    name: str
    platform: str
    scheme: str
    n: int
    log2_q: int
    mult_ms: float
    power_watts: float | None = None
    note: str = ""

    @property
    def mults_per_second(self) -> float:
        return 1000.0 / self.mult_ms


def published_points() -> list[ComparisonPoint]:
    """The literature numbers quoted in Sec. VI-E."""
    return [
        ComparisonPoint(
            name="FV-NFLlib [4]",
            platform="Intel i5-3427U @ 1.8 GHz, 1 thread",
            scheme="FV", n=4096, log2_q=186, mult_ms=33.0,
            power_watts=40.0,
            note="the paper's primary software baseline",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] CPU",
            platform="Xeon Platinum @ 2.1 GHz, 1 thread",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=30.0,
            note="10 ms at 60-bit q, ~3x at 180-bit per the paper",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] CPU 26T",
            platform="Xeon Platinum @ 2.1 GHz, 26 threads",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=12.0,
            note="4 ms at 60-bit q, ~3x at 180-bit",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] K80",
            platform="Tesla K80 GPU (2496 cores)",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=5.94,
            power_watts=300.0,
            note="1.98 ms at 60-bit q, ~3x at 180-bit",
        ),
        ComparisonPoint(
            name="Badawi et al. [33] V100",
            platform="Tesla V100 GPU (5120 cores)",
            scheme="FV (HPS RNS)", n=4096, log2_q=180, mult_ms=2.58,
            power_watts=300.0,
            note="0.86 ms at 60-bit q, ~3x at 180-bit -> ~388 Mult/s",
        ),
        ComparisonPoint(
            name="Poppelmann et al. [14]",
            platform="Catapult (Stratix V) @ 100 MHz",
            scheme="YASHE (broken by [35])", n=4096, log2_q=128,
            mult_ms=6.75,
            note="lighter scheme, smaller q, still slower",
        ),
        ComparisonPoint(
            name="HEPCloud [20]",
            platform="Virtex-6 FPGA",
            scheme="FV", n=32768, log2_q=1228, mult_ms=26_670.0,
            note="much larger parameters; DDR-transfer dominated",
        ),
    ]


def our_point(mult_ms_single: float, num_coprocessors: int,
              peak_watts: float) -> ComparisonPoint:
    """Our modelled system entry (throughput scales with coprocessors)."""
    return ComparisonPoint(
        name=f"This work ({num_coprocessors} coprocessors)",
        platform="Zynq UltraScale+ ZCU102 @ 200 MHz",
        scheme="FV (HPS RNS)", n=4096, log2_q=180,
        mult_ms=mult_ms_single / num_coprocessors,
        power_watts=peak_watts,
        note="cycle-level simulator of the HPCA'19 design",
    )


@dataclass(frozen=True)
class PaperRow:
    """One published number: where the paper prints it, its value in the
    paper's most exact unit, the model's value for it and its gate."""

    artefact: str
    label: str
    paper: float
    model: Callable[[], float]
    #: Bound on |error()|; ``None`` for a bound claim ("> 13x").
    gate: float | None

    def error(self) -> float:
        """The model's relative error against the paper."""
        return (self.model() - self.paper) / self.paper


def paper_rows(artefact: str) -> list[PaperRow]:
    """The record's rows of one artefact, in the paper's order."""
    return [row for row in PAPER_RECORD.values() if row.artefact == artefact]


def _point(name: str) -> ComparisonPoint:
    return next(p for p in published_points() if name in p.name)


def _cost(config: HardwareConfig | None = None) -> CostModel:
    return CostModel(hpca19(), config or HardwareConfig())


def _arm_cycles(seconds: float) -> float:
    return seconds * ARM_CLOCK_HZ


def _transfer(chunk_bytes: int | None) -> Callable[[], int]:
    return lambda: transfer_arm_cycles(hpca19().poly_bytes,
                                       chunk_bytes=chunk_bytes)


def _resources(design: Callable[[ResourceEstimator], Utilization],
               field: str) -> Callable[[], int]:
    def count() -> int:
        estimator = ResourceEstimator(hpca19(), HardwareConfig())
        return getattr(design(estimator), field)
    return count


def _scaled(row: int, seconds: str) -> Callable[[], float]:
    def milliseconds() -> float:
        cost = _cost()
        base = ResourceEstimator(cost.params, cost.config).single_coprocessor()
        points = scaling_table(
            base, cost.compute_seconds(JobKind.MULT),
            cost.transfer_in_seconds() + cost.transfer_out_seconds())
        return getattr(points[row], seconds) * 1e3
    return milliseconds


def _our_mults_per_second() -> float:
    cost = _cost()
    return our_point(cost.job_seconds(JobKind.MULT) * 1e3,
                     cost.config.num_coprocessors,
                     PowerModel(cost.config).peak_watts()).mults_per_second


def _key_transfer_share() -> float:
    pinned = _cost(replace(HardwareConfig(), relin_key_on_chip=True))
    return 1 - (pinned.compute_seconds(JobKind.MULT)
                / _cost().compute_seconds(JobKind.MULT))


def _hps_lift_speedup() -> float:
    params = hpca19()
    context = lift_context(params.q_primes, params.p_primes)
    config = HardwareConfig()
    traditional = TraditionalLiftUnit(context, replace(config, use_hps=False))
    return (traditional.cycles(params.n)
            / HpsLiftUnit(context, config).cycles(params.n))


def _twiddle_rom_penalty() -> float:
    params = hpca19()
    config = HardwareConfig()
    with_rom, without = (
        DualCoreNttUnit(params.n, params.q_primes[0], unit).transform_cycles()
        for unit in (config, replace(config, twiddle_rom=False)))
    return without / with_rom - 1


def _traditional_lift_ms() -> float:
    params = hpca19()
    config = replace(slow_coprocessor_config(), lift_cores=1)
    unit = TraditionalLiftUnit(
        lift_context(params.q_primes, params.p_primes), config)
    return unit.cycles(params.n) / config.fpga_clock_hz * 1e3


def _traditional_scale_ms() -> float:
    params = hpca19()
    config = replace(slow_coprocessor_config(), scale_cores=1)
    unit = TraditionalScaleUnit(
        scale_context(params.q_primes, params.p_primes, 2), config)
    return unit.cycles(params.n) / config.fpga_clock_hz * 1e3


def _table2(op: Opcode, paper: int, gate: float) -> PaperRow:
    def arm_cycles() -> int:
        coprocessor = Coprocessor(hpca19())
        cycles = coprocessor.instruction_cycle_model()[op]
        return coprocessor.config.fpga_to_arm_cycles(cycles)
    return PaperRow("Table II", op.value, paper, arm_cycles, gate)


#: Every number the paper publishes for this design, keyed by
#: (artefact, label), in the paper's most exact unit: Tables I-III in
#: Arm cycles, Table IV in resource counts, Table V in ms.
PAPER_RECORD: dict[tuple[str, str], PaperRow] = {
    (row.artefact, row.label): row for row in [
        PaperRow("Sec. IV-C", "HPS Lift speedup over traditional Lift", 13,
                 _hps_lift_speedup, 0.010),
        PaperRow("Sec. V-A4", "extra NTT cycles without the twiddle ROM",
                 0.20, _twiddle_rom_penalty, 0.125),
        PaperRow("Table I", "Mult in HW", 5_349_567, lambda: _arm_cycles(
            _cost().compute_seconds(JobKind.MULT)), 0.045),
        PaperRow("Table I", "Add in HW", 31_339, lambda: _arm_cycles(
            _cost().compute_seconds(JobKind.ADD)), 0.035),
        PaperRow("Table I", "Add in SW", 54_680_467,
                 lambda: add_in_sw_cycles(hpca19()), 0.005),
        PaperRow("Table I", "Send two ciphertexts", 434_013,
                 lambda: _arm_cycles(_cost().transfer_in_seconds()), 0.005),
        PaperRow("Table I", "Receive result", 215_697,
                 lambda: _arm_cycles(_cost().transfer_out_seconds()), 0.010),
        PaperRow("Table I text", "Add in SW over Add in HW", 80,
                 lambda: _cost().add_speedup_over_sw(), 0.005),
        PaperRow("Table I text", "relinearisation key transfer share",
                 0.30, _key_transfer_share, 0.155),
        _table2(Opcode.NTT, 87_582, 0.005),
        _table2(Opcode.INTT, 102_043, 0.020),
        _table2(Opcode.CMUL, 15_662, 0.040),
        _table2(Opcode.CADD, 16_292, 0.010),
        _table2(Opcode.REARRANGE, 25_006, 0.005),
        _table2(Opcode.LIFT, 99_137, 0.095),
        _table2(Opcode.SCALE, 99_274, 0.095),
        PaperRow("Table III", "single 98,304-byte burst", 90_708,
                 _transfer(None), 0.010),
        PaperRow("Table III", "16,384-byte chunks", 130_686,
                 _transfer(16_384), 0.245),
        PaperRow("Table III", "1,024-byte chunks", 242_771,
                 _transfer(1_024), 0.005),
        PaperRow("Table IV", "two coprocs: LUT", 133_692,
                 _resources(ResourceEstimator.full_design, "luts"), 0.015),
        PaperRow("Table IV", "two coprocs: FF", 60_312,
                 _resources(ResourceEstimator.full_design, "regs"), 0.015),
        PaperRow("Table IV", "two coprocs: BRAM36", 815,
                 _resources(ResourceEstimator.full_design, "bram36"), 0.030),
        PaperRow("Table IV", "two coprocs: DSP", 416,
                 _resources(ResourceEstimator.full_design, "dsps"), 0.080),
        PaperRow("Table IV", "one coproc: LUT", 63_522,
                 _resources(ResourceEstimator.single_coprocessor, "luts"),
                 0.015),
        PaperRow("Table IV", "one coproc: FF", 25_622,
                 _resources(ResourceEstimator.single_coprocessor, "regs"),
                 0.020),
        PaperRow("Table IV", "one coproc: BRAM36", 388,
                 _resources(ResourceEstimator.single_coprocessor, "bram36"),
                 0.030),
        PaperRow("Table IV", "one coproc: DSP", 208,
                 _resources(ResourceEstimator.single_coprocessor, "dsps"),
                 0.080),
        PaperRow("Table V", "(2^12, 180) compute", 4.46,
                 _scaled(0, "compute_seconds"), 0.045),
        PaperRow("Table V", "(2^12, 180) comm", 0.54,
                 _scaled(0, "comm_seconds"), 0.005),
        PaperRow("Table V", "(2^12, 180) total", 5.0,
                 _scaled(0, "total_seconds"), 0.040),
        PaperRow("Table V", "(2^13, 360) compute", 9.68,
                 _scaled(1, "compute_seconds"), 0.045),
        PaperRow("Table V", "(2^13, 360) comm", 2.16,
                 _scaled(1, "comm_seconds"), 0.005),
        PaperRow("Table V", "(2^13, 360) total", 11.9,
                 _scaled(1, "total_seconds"), 0.040),
        PaperRow("Table V", "(2^14, 720) compute", 21.0,
                 _scaled(2, "compute_seconds"), 0.045),
        PaperRow("Table V", "(2^14, 720) comm", 8.64,
                 _scaled(2, "comm_seconds"), 0.005),
        PaperRow("Table V", "(2^14, 720) total", 29.6,
                 _scaled(2, "total_seconds"), 0.030),
        PaperRow("Table V", "(2^15, 1440) compute", 45.6,
                 _scaled(3, "compute_seconds"), 0.045),
        PaperRow("Table V", "(2^15, 1440) comm", 34.6,
                 _scaled(3, "comm_seconds"), 0.005),
        PaperRow("Table V", "(2^15, 1440) total", 80.2,
                 _scaled(3, "total_seconds"), 0.025),
        PaperRow("Sec. VI-C", "static power (W)", 5.3,
                 lambda: PowerModel(HardwareConfig()).static_watts(), 0.0),
        PaperRow("Sec. VI-C", "dynamic power, one coprocessor (W)", 2.2,
                 lambda: PowerModel(HardwareConfig()).dynamic_watts(1), 0.0),
        PaperRow("Sec. VI-C", "dynamic power, two coprocessors (W)", 3.4,
                 lambda: PowerModel(HardwareConfig()).dynamic_watts(2), 0.0),
        PaperRow("Sec. VI-C", "slow coprocessor Mult (ms)", 8.3,
                 lambda: _cost(slow_coprocessor_config()).compute_seconds(
                     JobKind.MULT) * 1e3, 0.145),
        PaperRow("Sec. VI-C", "traditional Lift, one core (ms)", 1.68,
                 _traditional_lift_ms, 0.005),
        PaperRow("Sec. VI-C", "traditional Scale, one core (ms)", 4.3,
                 _traditional_scale_ms, 0.005),
        PaperRow("Sec. VI-E", "FV-NFLlib Mult on the i5 (ms)",
                 _point("FV-NFLlib").mult_ms,
                 lambda: SoftwareBaseline(hpca19()).mult_seconds() * 1e3,
                 0.005),
        PaperRow("Sec. VI-E", "FV-NFLlib i5 power (W)", 40,
                 lambda: _point("FV-NFLlib").power_watts, 0.0),
        PaperRow("Sec. VI-E", "Tesla V100 at 180-bit q (Mult/s)", 388,
                 lambda: _point("V100").mults_per_second, 0.005),
        PaperRow("headline", "Mult/s with two coprocessors", 400,
                 _our_mults_per_second, 0.040),
        PaperRow("headline", "speedup over FV-NFLlib on the i5", 13,
                 lambda: (SoftwareBaseline(hpca19()).mult_seconds()
                          * _cost().mult_throughput_per_second()), None),
        PaperRow("headline", "peak power (W)", 8.7,
                 lambda: PowerModel(HardwareConfig()).peak_watts(), 0.0),
    ]
}
