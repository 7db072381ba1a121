"""Structural FPGA resource estimator (paper Table IV).

The estimate is built bottom-up from instance counts — the same structure
the Verilog has — times per-leaf costs:

* DSP and BRAM counts are *derived*: a pipelined 30x30 multiplier is four
  DSP48E2 slices, a 30x60 reciprocal multiplier eight; BRAM counts come
  from the memory map (:mod:`repro.hw.memory_file`) and the twiddle ROMs.
* LUT/FF leaf constants cannot be derived without synthesis; they are
  calibrated once against the paper's Vivado totals (63,522 LUT /
  25,622 FF per coprocessor) and documented below. Because the totals are
  structural sums, changing core counts (the design-space knobs of
  Sec. VII) moves the estimate the way the real design would move.

ZCU102 device capacity (XCZU9EG) is included so the Table IV totals
can be checked against the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import ParameterSet
from .config import HardwareConfig
from .datapath import DSP_PER_30X30, DSP_PER_30X60
from .memory_file import MemoryFile

# XCZU9EG (ZCU102) capacity.
ZCU102_LUTS = 274_080
ZCU102_REGS = 548_160
ZCU102_BRAM36 = 912
ZCU102_DSPS = 2_520

# Calibrated LUT/FF leaf costs (see module docstring).
LUT_PER_BUTTERFLY = 2_000
FF_PER_BUTTERFLY = 800
LUT_PER_RPAU_CONTROL = 1_200
FF_PER_RPAU_CONTROL = 400
LUT_PER_HPS_LIFT_CORE = 6_500
FF_PER_HPS_LIFT_CORE = 2_600
LUT_PER_HPS_SCALE_CORE = 5_000
FF_PER_HPS_SCALE_CORE = 2_000
LUT_PER_TRAD_CORE = 9_000      # long-integer datapaths are LUT-hungry
FF_PER_TRAD_CORE = 3_600
LUT_TOP_CONTROL = 5_000
FF_TOP_CONTROL = 2_000
LUT_INTERFACE = 6_648          # DMA + interfacing units (Fig. 11)
FF_INTERFACE = 9_068
BRAM_INTERFACE = 39
DSP_INTERFACE = 0


@dataclass(frozen=True)
class Utilization:
    """One row of Table IV."""

    luts: int
    regs: int
    bram36: int
    dsps: int

    def __add__(self, other: Utilization) -> Utilization:
        return Utilization(
            self.luts + other.luts, self.regs + other.regs,
            self.bram36 + other.bram36, self.dsps + other.dsps,
        )

    def scaled(self, factor: int) -> Utilization:
        return Utilization(self.luts * factor, self.regs * factor,
                           self.bram36 * factor, self.dsps * factor)


class ResourceEstimator:
    """Bottom-up resource model for one bitstream configuration."""

    def __init__(self, params: ParameterSet,
                 config: HardwareConfig | None = None) -> None:
        self.params = params
        self.config = config or HardwareConfig()
        self.memory = MemoryFile(params, self.config)

    # -- per-subsystem estimates ----------------------------------------------------

    def butterfly_count(self) -> int:
        num_rpaus = min(self.config.num_rpaus,
                        max(self.params.k_q, self.params.k_p))
        return num_rpaus * self.config.butterfly_cores_per_rpau

    def rpau_utilization(self) -> Utilization:
        num_rpaus = min(self.config.num_rpaus,
                        max(self.params.k_q, self.params.k_p))
        butterflies = self.butterfly_count()
        return Utilization(
            luts=(butterflies * LUT_PER_BUTTERFLY
                  + num_rpaus * LUT_PER_RPAU_CONTROL),
            regs=(butterflies * FF_PER_BUTTERFLY
                  + num_rpaus * FF_PER_RPAU_CONTROL),
            bram36=0,  # counted by the memory file
            dsps=butterflies * DSP_PER_30X30,
        )

    def lift_utilization(self) -> Utilization:
        k_p = self.params.k_p
        if self.config.use_hps:
            # Fig. 6: Block 1 MAC, Block 2 one MAC per output residue,
            # Block 3 the 30x60 reciprocal multiplier, Block 4 one MAC.
            dsps_per_core = ((1 + k_p + 1) * DSP_PER_30X30 + DSP_PER_30X60)
            lut, ff = LUT_PER_HPS_LIFT_CORE, FF_PER_HPS_LIFT_CORE
        else:
            # Fig. 5: one long-integer multiplier tiled from 30x30 blocks
            # plus the division-by-reciprocal datapath.
            limbs = self.params.k_q
            dsps_per_core = 2 * limbs * DSP_PER_30X30
            lut, ff = LUT_PER_TRAD_CORE, FF_PER_TRAD_CORE
        cores = self.config.lift_cores
        return Utilization(luts=cores * lut, regs=cores * ff, bram36=0,
                           dsps=cores * dsps_per_core)

    def scale_utilization(self) -> Utilization:
        k_p = self.params.k_p
        if self.config.use_hps:
            # Fig. 9 front blocks: the fractional accumulator (30x60), one
            # MAC per output residue for the integer SoP, the own-channel
            # MAC. The back-end reuses the lift datapath.
            dsps_per_core = (DSP_PER_30X60 + k_p * DSP_PER_30X30
                             + DSP_PER_30X30)
            lut, ff = LUT_PER_HPS_SCALE_CORE, FF_PER_HPS_SCALE_CORE
        else:
            limbs = self.params.k_total
            dsps_per_core = 2 * limbs * DSP_PER_30X30
            lut, ff = LUT_PER_TRAD_CORE, FF_PER_TRAD_CORE
        cores = self.config.scale_cores
        return Utilization(luts=cores * lut, regs=cores * ff, bram36=0,
                           dsps=cores * dsps_per_core)

    def memory_utilization(self) -> Utilization:
        return Utilization(luts=0, regs=0,
                           bram36=self.memory.total_bram36k(), dsps=0)

    def control_utilization(self) -> Utilization:
        return Utilization(luts=LUT_TOP_CONTROL, regs=FF_TOP_CONTROL,
                           bram36=0, dsps=0)

    # -- Table IV rows -----------------------------------------------------------------

    def single_coprocessor(self) -> Utilization:
        return (self.rpau_utilization() + self.lift_utilization()
                + self.scale_utilization() + self.memory_utilization()
                + self.control_utilization())

    def interface(self) -> Utilization:
        return Utilization(LUT_INTERFACE, FF_INTERFACE, BRAM_INTERFACE,
                           DSP_INTERFACE)

    def full_design(self) -> Utilization:
        return (self.single_coprocessor()
                .scaled(self.config.num_coprocessors)
                + self.interface())
