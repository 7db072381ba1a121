"""Cost model of the baremetal Arm software (paper Fig. 11, Table I).

The paper runs its server software directly on the Cortex-A53 cores
("baremetal, light-weight IP stack") and measures that a plain FV.Add in
software takes 54,680,467 Arm cycles — 80x slower than shipping the
ciphertexts to the FPGA and back. That is ~1,112 cycles per modular
addition: the baremetal loop is memory-bound on uncached DDR traffic, not
arithmetic-bound. The constant is calibrated from that Table I row and
drives the HW-vs-SW Add comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import HardwareConfig
from ..params import ParameterSet

#: Calibrated from Table I: 54,680,467 cycles / (2 * 6 * 4096) additions.
ARM_CYCLES_PER_MODADD = 1112


@dataclass(frozen=True)
class ArmCoreModel:
    """One Cortex-A53 application core of the processing system."""

    config: HardwareConfig

    @property
    def clock_hz(self) -> int:
        return self.config.arm_clock_hz

    def add_in_sw_cycles(self, params: ParameterSet) -> int:
        """FV.Add in software: coefficient-wise addition of two parts."""
        additions = 2 * params.k_q * params.n
        return additions * ARM_CYCLES_PER_MODADD

    def add_in_sw_seconds(self, params: ParameterSet) -> float:
        return self.add_in_sw_cycles(params) / self.clock_hz
