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

from ..hw.config import ARM_CLOCK_HZ
from ..params import ParameterSet

#: Calibrated from Table I: 54,680,467 cycles / (2 * 6 * 4096) additions.
ARM_CYCLES_PER_MODADD = 1112


def add_in_sw_cycles(params: ParameterSet) -> int:
    """FV.Add in software on one Cortex-A53 application core:
    coefficient-wise addition of two parts."""
    additions = 2 * params.k_q * params.n
    return additions * ARM_CYCLES_PER_MODADD


def add_in_sw_seconds(params: ParameterSet) -> float:
    return add_in_sw_cycles(params) / ARM_CLOCK_HZ
